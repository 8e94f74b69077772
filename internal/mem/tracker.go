package mem

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Category labels a class of training memory, following the paper's Sec. 3
// taxonomy.
type Category string

// Standard categories.
const (
	CatParamsFP16  Category = "params_fp16"
	CatGradsFP16   Category = "grads_fp16"
	CatOptimState  Category = "optimizer_state"
	CatActivations Category = "activations"
	CatActCkpt     Category = "activation_ckpt"
	CatWorkingSet  Category = "working_set"
	CatCommBuffers Category = "comm_buffers"
	CatPinnedStage Category = "pinned_staging"
)

// Tracker attributes live bytes to categories on one device tier
// (GPU / CPU / NVMe). It is safe for concurrent use.
type Tracker struct {
	mu    sync.Mutex
	name  string
	bytes map[Category]int64
	peak  map[Category]int64
}

// NewTracker returns a tracker labelled name (e.g. "gpu0", "cpu", "nvme").
func NewTracker(name string) *Tracker {
	return &Tracker{name: name, bytes: make(map[Category]int64), peak: make(map[Category]int64)}
}

// Add records n bytes (negative to release) against cat.
func (t *Tracker) Add(cat Category, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bytes[cat] += n
	if t.bytes[cat] < 0 {
		panic(fmt.Sprintf("mem: tracker %s category %s went negative", t.name, cat))
	}
	if t.bytes[cat] > t.peak[cat] {
		t.peak[cat] = t.bytes[cat]
	}
}

// Live returns the live bytes for cat.
func (t *Tracker) Live(cat Category) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes[cat]
}

// Peak returns the high-water mark for cat.
func (t *Tracker) Peak(cat Category) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak[cat]
}

// TotalLive returns the sum of live bytes across categories.
func (t *Tracker) TotalLive() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s int64
	for _, v := range t.bytes {
		s += v
	}
	return s
}

// TotalPeak returns the sum of per-category peaks (an upper bound on the
// true simultaneous peak).
func (t *Tracker) TotalPeak() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s int64
	for _, v := range t.peak {
		s += v
	}
	return s
}

// String renders a sorted per-category report.
func (t *Tracker) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	cats := make([]string, 0, len(t.bytes))
	for c := range t.bytes {
		cats = append(cats, string(c))
	}
	sort.Strings(cats)
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", t.name)
	for _, c := range cats {
		fmt.Fprintf(&b, " %s=%s(peak %s)", c, FormatBytes(t.bytes[Category(c)]), FormatBytes(t.peak[Category(c)]))
	}
	return b.String()
}

// FormatBytes renders n in human units (binary prefixes).
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%cB", float64(n)/float64(div), "KMGTPE"[exp])
}
