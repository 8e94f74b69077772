// Package harness registers one runnable experiment per table and figure of
// the paper, each printing the corresponding rows/series. cmd/zinf-bench and
// the repository-level benchmarks drive it.
package harness

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/tensor"
)

// backend is the compute backend the functional experiments build their
// engines on. Experiments stay bit-identical across backends, so switching
// it only changes wall-clock time.
var backend = tensor.Reference()

// SetBackend selects the compute backend for subsequent experiment runs
// (nil restores the serial reference backend).
func SetBackend(be tensor.Backend) { backend = tensor.DefaultBackend(be) }

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string // stable id, e.g. "fig5a"
	Title string // paper artifact name
	Claim string // what the paper reports (the shape to verify)
	Run   func(w io.Writer) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Run executes the experiment with a header.
func Run(w io.Writer, e Experiment) error {
	fmt.Fprintf(w, "== %s — %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "   paper: %s\n", e.Claim)
	return e.Run(w)
}

// table is a small helper around tabwriter.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

// fmtParams renders a parameter count as e.g. "1.4B" or "32T".
func fmtParams(p int64) string {
	switch {
	case p >= 1e12:
		return fmt.Sprintf("%.1fT", float64(p)/1e12)
	case p >= 1e9:
		return fmt.Sprintf("%.1fB", float64(p)/1e9)
	default:
		return fmt.Sprintf("%.0fM", float64(p)/1e6)
	}
}
