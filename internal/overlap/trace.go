// Package overlap implements the learn-then-speculate operator-sequence
// tracker behind the paper's overlap-centric design (Sec. 6.2). During a
// learning iteration the trace records the sequence of operations (parameter
// gathers); in later iterations a cursor follows the recorded sequence so a
// prefetcher can issue work for the next k entries while the current one
// executes. If the observed sequence diverges from the trace (dynamic
// control flow), speculation stops for the rest of the step and the trace is
// relearned from scratch on the next step — never by appending onto the
// stale sequence, which would corrupt speculation with a stale prefix plus a
// duplicate suffix.
//
// Both speculation stages share this state machine: the sharded engine's
// gather prefetcher (internal/zero) and the shard read-ahead it drives on
// the NVMe tier (internal/core).
// Crucially for the gather prefetcher, every transition is a pure function of
// the observed key sequence — no wall-clock or scheduling input — so SPMD
// ranks observing identical gather sequences make identical speculation
// decisions, which is what keeps speculatively issued collectives matched
// across ranks.
package overlap

// Trace tracks one operator sequence. The zero value is not usable; call New.
type Trace[K comparable] struct {
	depth int
	seq   []K
	// learning: this step records the sequence instead of speculating.
	learning bool
	// relearn: the sequence diverged mid-step; speculation is disabled for
	// the rest of this step and the next step becomes a learning step.
	relearn bool
	pos     int
}

// New returns a Trace in learning mode. depth sizes the divergence-search
// window used by Observe (matching the prefetch read-ahead depth).
func New[K comparable](depth int) *Trace[K] {
	if depth < 0 {
		depth = 0
	}
	return &Trace[K]{depth: depth, learning: true}
}

// BeginStep resets the cursor for a new iteration. In learning mode the
// previous trace is discarded so the step records a fresh, complete
// sequence.
//
//zinf:hotpath
func (t *Trace[K]) BeginStep() {
	t.pos = 0
	if t.learning {
		t.seq = t.seq[:0]
	}
}

// EndStep finishes the iteration. A completed learning step arms
// speculation; a step that diverged re-enters learning mode so the next
// step records a clean trace (the mid-step relearn semantics).
//
//zinf:hotpath
func (t *Trace[K]) EndStep() {
	t.learning = t.relearn
	t.relearn = false
}

// Learning reports whether the current step is recording the sequence.
//
//zinf:hotpath
func (t *Trace[K]) Learning() bool { return t.learning }

// Speculating reports whether prefetch issue is currently allowed: a trace
// has been learned and the step has not diverged from it.
//
//zinf:hotpath
func (t *Trace[K]) Speculating() bool { return !t.learning && !t.relearn }

// Observe notes that k is about to execute. In learning mode it appends k
// to the trace; in speculation mode it advances the cursor to just past k,
// or — if k is not found within the search window — marks the sequence
// diverged (speculation stops, next step relearns).
//
//zinf:hotpath
func (t *Trace[K]) Observe(k K) {
	if t.learning {
		t.seq = append(t.seq, k)
		return
	}
	if t.relearn {
		return
	}
	for i := t.pos; i < len(t.seq) && i < t.pos+2*t.depth+4; i++ {
		if t.seq[i] == k {
			t.pos = i + 1
			return
		}
	}
	t.relearn = true
}

// Each calls yield for the upcoming trace entries — from the cursor to the
// end of the learned sequence, in order — while yield returns true. It
// yields nothing unless Speculating.
//
//zinf:hotpath
func (t *Trace[K]) Each(yield func(K) bool) {
	if !t.Speculating() {
		return
	}
	for i := t.pos; i < len(t.seq); i++ {
		if !yield(t.seq[i]) {
			return
		}
	}
}

// Len returns the learned sequence length.
//
//zinf:hotpath
func (t *Trace[K]) Len() int { return len(t.seq) }
