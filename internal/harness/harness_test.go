package harness

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{
		"equiv", "fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig3c",
		"fig5a", "fig5b", "fig5c", "fig6a", "fig6b-analytic", "fig6b-engine",
		"fig6c", "fig6c-sim", "fig6d", "fig6e", "nvme-bw", "overlap",
		"stepalloc", "tab1", "tab2", "tab3",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig5a"); !ok {
		t.Fatal("fig5a missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus id found")
	}
}

// Every analytic/simulated experiment must run cleanly and print rows.
func TestAnalyticAndSimExperimentsProduceOutput(t *testing.T) {
	for _, id := range []string{
		"fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig3c",
		"fig5a", "fig5b", "fig5c", "fig6a", "fig6b-analytic",
		"fig6c-sim", "fig6d", "fig6e", "tab1", "tab2", "tab3",
	} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		var buf bytes.Buffer
		if err := Run(&buf, e); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if lines := strings.Count(buf.String(), "\n"); lines < 4 {
			t.Fatalf("%s: only %d lines of output", id, lines)
		}
	}
}

// The functional experiments are slower; run them too (they double as
// integration tests across comm+model+zero+core+nvme).
func TestFunctionalExperiments(t *testing.T) {
	for _, id := range []string{"equiv", "fig6b-engine", "nvme-bw", "overlap"} {
		e, _ := ByID(id)
		var buf bytes.Buffer
		if err := Run(&buf, e); err != nil {
			t.Fatalf("%s: %v\n%s", id, err, buf.String())
		}
		if id == "equiv" && (!strings.Contains(buf.String(), "BIT-IDENTICAL") ||
			!strings.Contains(buf.String(), "infinity-overlap")) {
			t.Fatalf("equiv output missing verdicts or overlap rows:\n%s", buf.String())
		}
		if id == "fig6b-engine" {
			out := buf.String()
			if !strings.Contains(out, "OOM (fragmented)") || !strings.Contains(out, "trains") {
				t.Fatalf("%s did not show both outcomes:\n%s", id, out)
			}
			if !strings.Contains(out, "reduction") {
				t.Fatalf("%s missing max-live reduction line:\n%s", id, out)
			}
		}
	}
}

// The fig6c acceptance property: on a multi-node topology, 1/dp slicing's
// param-gather aggregate bandwidth beats owner-rank broadcast's, the run
// emits machine-readable records for both, and (asserted inside the
// experiment) the two strategies' losses are bit-identical.
func TestFig6cSlicingBeatsBroadcast(t *testing.T) {
	e, ok := ByID("fig6c")
	if !ok {
		t.Fatal("fig6c missing")
	}
	ResetRecords()
	defer ResetRecords()
	var buf bytes.Buffer
	if err := Run(&buf, e); err != nil {
		t.Fatalf("fig6c: %v\n%s", err, buf.String())
	}
	var slice, bcast float64
	for _, r := range Records() {
		switch r.Name {
		case "zinf/fig6c/slice/gather":
			slice = r.Value
		case "zinf/fig6c/broadcast/gather":
			bcast = r.Value
		}
	}
	if slice == 0 || bcast == 0 {
		t.Fatalf("fig6c records missing: slice=%v broadcast=%v", slice, bcast)
	}
	if slice <= bcast {
		t.Fatalf("slicing %.2f GB/s not above broadcast %.2f GB/s", slice, bcast)
	}
	if !strings.Contains(buf.String(), "bit-identical") {
		t.Fatalf("fig6c output missing bit-identity note:\n%s", buf.String())
	}
}

func TestFmtParams(t *testing.T) {
	cases := map[int64]string{
		1_400_000_000:      "1.4B",
		32_000_000_000_000: "32.0T",
		500_000_000:        "500M",
	}
	for in, want := range cases {
		if got := fmtParams(in); got != want {
			t.Errorf("fmtParams(%d) = %q, want %q", in, got, want)
		}
	}
}

var _ = io.Discard
