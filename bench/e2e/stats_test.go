package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func seq(n int) []float64 { // n..1, so sorting is exercised
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{40, 50, 20}, // ceil(0.50*40) = 20th smallest
		{40, 75, 30}, // exactly ten samples beyond
		{41, 75, 31}, // ceil(30.75)
		{60, 75, 45},
		{5, 50, 3},
		{1, 50, 1},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", tc.p, tc.n, got, err, tc.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	if _, err := percentile(seq(39), 75); err == nil {
		t.Error("p75 of 39 samples (9 beyond) was reported")
	}
	if _, err := percentile(seq(40), 90); err == nil {
		t.Error("p90 of 40 samples (4 beyond) was reported")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of nothing was reported")
	}
}

// The expected quartiles are Python's statistics.quantiles(v, n=4).
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	got, ok := spread(seq(10)) // quartiles 2.75, 5.5, 8.25
	if !ok || math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %v, %v; want 1.0", got, ok)
	}
	got, ok = spread([]float64{10, 12, 11, 13}) // quartiles 10.25, 11.5, 12.75
	if want := 2.5 / 11.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, %v; want %v", got, ok, want)
	}
	if _, ok := spread([]float64{1, 2, 3}); ok {
		t.Error("spread of three values claimed to be known")
	}
}

func TestJudgeDirectionAndBound(t *testing.T) {
	tput := metricDef{Name: "tokens_per_s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "step_ms_p50", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		d         metricDef
		base, cur float64
		want      string
	}{
		{tput, 100, 85, verdictRegressed},
		{tput, 100, 91, verdictUnchanged},
		{tput, 100, 115, verdictImproved},
		{lat, 100, 115, verdictRegressed},
		{lat, 100, 109, verdictUnchanged},
		{lat, 100, 85, verdictImproved},
	} {
		got, _ := judge(tc.d, []float64{tc.base}, []float64{tc.cur})
		if got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.base, tc.cur, got, tc.want)
		}
	}
	_, worse := judge(tput, []float64{100}, []float64{85})
	if math.Abs(worse-0.15) > 1e-12 {
		t.Errorf("worse share %v, want 0.15 (a drop in a higher-is-better metric is positive)", worse)
	}
}

func TestJudgeUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	lat := metricDef{Name: "step_ms_p50", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98}
	noisy := []float64{100, 130, 80, 120, 90, 110}
	if got, _ := judge(lat, steady, steady); got != verdictUnchanged {
		t.Errorf("steady vs steady: %s", got)
	}
	// Same medians, but one side cannot tell a 10% change from its own
	// noise: that is not "unchanged".
	if got, _ := judge(lat, steady, noisy); got != verdictUnresolved {
		t.Errorf("steady vs noisy: %s, want %s", got, verdictUnresolved)
	}
	if got, _ := judge(lat, noisy, steady); got != verdictUnresolved {
		t.Errorf("noisy vs steady: %s, want %s", got, verdictUnresolved)
	}
}

func TestCompareFilesReportsRegression(t *testing.T) {
	write := func(name string, p50 float64) string {
		r := results{Workloads: map[string]map[string][]float64{}}
		for _, w := range workloads {
			r.Workloads[w.Name] = map[string][]float64{}
			for _, d := range e2eMetrics {
				r.Workloads[w.Name][d.Name] = []float64{100}
			}
		}
		r.Workloads["z3_sock_thin"]["step_ms_p50"] = []float64{p50}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o666); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 100)
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, base, write("same.json", 104)); err != nil || regressed {
		t.Errorf("+4%% on a 10%% bound: regressed=%v err=%v", regressed, err)
	}
	out.Reset()
	regressed, err := compareFiles(&out, base, write("slow.json", 125))
	if err != nil || !regressed {
		t.Errorf("+25%% on a 10%% bound: regressed=%v err=%v", regressed, err)
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloads)*len(e2eMetrics) {
		t.Errorf("%d rows, want one per workload and metric plus a header", rows)
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("no %q row in:\n%s", verdictRegressed, out.String())
	}
}
