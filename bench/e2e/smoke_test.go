package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestSmokeAllWorkloadsToyScale runs the five workload shapes at toy size
// (hidden 32, 2 ranks, 3 steps) through the untraced pass, the traced pass
// and the probes, with the same output checks the benchmark applies, so
// tier-1 keeps the runner working.
func TestSmokeAllWorkloadsToyScale(t *testing.T) {
	sc := toyScale
	tmp := t.TempDir()
	byName := map[string]measured{}
	var traced measured
	for _, w := range workloads {
		m, err := measureE2E(w, sc, 1, budget{Steps: w.geometry(sc).Steps}, tmp)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		byName[w.Name] = m
		if len(m.Problems) > 0 || m.Failed != 0 {
			t.Errorf("%s: problems %v, %d failed steps", w.Name, m.Problems, m.Failed)
		}
		if want := sc.Ranks * (sc.Warmup + w.geometry(sc).Steps); m.Attempted != want {
			t.Errorf("%s: attempted %d steps, want %d", w.Name, m.Attempted, want)
		}
		for _, name := range []string{"tokens_per_s", "step_ms_p50", "setup_s", "heap_live_mb"} {
			if v := m.Metrics[name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.Name, name, v)
			}
		}
		if _, ok := m.Metrics["step_ms_p75"]; ok {
			t.Errorf("%s: p75 reported from %d samples", w.Name, m.Samples)
		}

		l, err := measureLayers(w, sc, 1, budget{Steps: sc.TracedSteps}, m, "", tmp)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if len(l.Problems) > 0 {
			t.Errorf("%s traced: %v", w.Name, l.Problems)
		}
		for _, name := range []string{"engine.step_ms", "model.fwd_ms", "model.bwd_ms", "tensor.matmul_ms", "comm.ops_per_step"} {
			if !(l.Metrics[name] > 0) {
				t.Errorf("%s traced: %s = %v", w.Name, name, l.Metrics[name])
			}
		}
		if got := l.Metrics["nvme.read_mb_per_step"] > 0; got != (w.Engine == "inf") {
			t.Errorf("%s traced: nvme.read_mb_per_step = %v", w.Name, l.Metrics["nvme.read_mb_per_step"])
		}
		traced = l
	}
	for _, p := range checkThinRowsAgree(byName) {
		t.Error(p)
	}

	probes, err := runProbes(sc, tmp)
	if err != nil {
		t.Fatal(err)
	}
	// Every per-layer metric comes from exactly one of the two sources.
	for _, d := range layerMetricDefs {
		_, inTrace := traced.Metrics[d.Name]
		v, inProbe := probes[d.Name]
		if inTrace == inProbe {
			t.Errorf("%s: in traced pass %v, in probes %v", d.Name, inTrace, inProbe)
		}
		if inProbe && !(v > 0) {
			t.Errorf("probe %s = %v", d.Name, v)
		}
	}
	if len(traced.Metrics)+len(probes) != len(layerMetricDefs) {
		t.Errorf("%d traced + %d probe metrics, %d defined", len(traced.Metrics), len(probes), len(layerMetricDefs))
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("%d temporary files left behind, first %s", len(left), left[0].Name())
	}
}

// TestBenchmarkJSONMatchesTheProgram holds BENCHMARK.json to the tables the
// program prints from, and to the limits the driver's schema sets.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the schema has exactly 6", len(keys))
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench/e2e" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
		checkName(w.Name)
	}
	if len(doc.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(e2eMetrics))
	}
	for i, d := range e2eMetrics {
		if g := doc.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 || !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: bound %v or unit %q outside the schema", d.Name, d.Bound, d.Unit)
		}
		checkName(d.Name)
	}
	if len(doc.PerLayer) != len(layerMetricDefs) || len(doc.PerLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(layerMetricDefs))
	}
	for i, d := range layerMetricDefs {
		if g := doc.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("%s: unit %q or direction %q outside the schema", d.Name, d.Unit, d.Better)
		}
		checkName(d.Name)
	}
}
