//go:build race

package comm

// raceEnabled reports that the race detector is instrumenting this build;
// its shadow-memory bookkeeping allocates, so the zero-allocation assertion
// is skipped under -race (the CI bench-smoke lane runs it uninstrumented).
const raceEnabled = true
