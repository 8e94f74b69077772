package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, end-to-end metric) pairing.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // the inputs' own spread exceeds the bound
)

// judge compares the medians of base and cur in d's direction. worse is
// the share of base's median by which cur is worse (negative = better). A
// difference can only be called when both sides' own run-to-run spread is
// inside the bound; otherwise the pairing is unresolved, not unchanged.
func judge(d metricDef, base, cur []float64) (verdict string, worse float64) {
	b, c := median(base), median(cur)
	if b == 0 {
		return verdictUnresolved, 0
	}
	worse = (c - b) / b
	if d.Better == "higher" {
		worse = -worse
	}
	for _, side := range [][]float64{base, cur} {
		if s, ok := spread(side); ok && s > d.Bound {
			return verdictUnresolved, worse
		}
	}
	switch {
	case worse > d.Bound:
		return verdictRegressed, worse
	case worse < -d.Bound:
		return verdictImproved, worse
	}
	return verdictUnchanged, worse
}

func readResults(path string) (results, error) {
	var r results
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any regressed.
func compareFiles(w io.Writer, basePath, curPath string) (regressed bool, err error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readResults(curPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-14s %12s %12s %8s %7s  %s\n", "workload", "metric", "base", "new", "worse", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range e2eMetrics {
			b, c := base.Workloads[wl.Name][d.Name], cur.Workloads[wl.Name][d.Name]
			if len(b) == 0 || len(c) == 0 {
				return false, fmt.Errorf("%s %s: missing from one of the inputs", wl.Name, d.Name)
			}
			v, worse := judge(d, b, c)
			fmt.Fprintf(w, "%-14s %-14s %12.4f %12.4f %+7.1f%% %6.0f%%  %s (n=%d,%d)\n",
				wl.Name, d.Name, median(b), median(c), 100*worse, 100*d.Bound, v, len(b), len(c))
			regressed = regressed || v == verdictRegressed
		}
	}
	return regressed, nil
}
