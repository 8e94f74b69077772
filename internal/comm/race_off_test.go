//go:build !race

package comm

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
