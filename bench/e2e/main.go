// Command e2e is the repository's benchmark: five workloads that each run
// real training steps (4 ranks, the m256 model) on a different engine,
// transport or tier, five end-to-end metrics per workload measured with
// tracing off, and a traced pass plus probes that give per-layer metrics.
// README.md in this directory is the glossary; BENCHMARK.json at the
// repository root is the contract.
//
//	go run ./bench/e2e                      every workload, all passes, checks, BENCH_e2e.json
//	go run ./bench/e2e -workload W -seconds 10 -trace 0|1   one workload, one JSON line (the driver's form)
//	go run ./bench/e2e -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// tmpParent is where NVMe stores and probe files live while a run lasts:
// inside the working directory, which is all the benchmark may write to.
const tmpParent = ".bench_tmp"

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and print one JSON result line (default: run all and print tables)")
		seed     = flag.Uint64("seed", 1, "data seed; batch seed is seed + step*1000 + rank")
		seconds  = flag.Float64("seconds", 0, "measure for at least this long and 40 steps (default: the geometry's fixed step count)")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics")
		repeat   = flag.Int("repeat", 1, "without -workload: run the untraced pass this many times, seeds seed..seed+repeat-1")
		out      = flag.String("out", "BENCH_e2e.json", "without -workload: results file; the Chrome traces go next to it")
		compare  = flag.Bool("compare", false, "compare two results files: -compare base.json new.json")
		goldenTo = flag.String("write-golden", "", "without -workload: write this run's losses as the new golden file")
	)
	flag.Parse()
	var ok bool
	var err error
	switch {
	case *compare && flag.NArg() == 2:
		var regressed bool
		regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		ok = !regressed
	case *compare:
		err = fmt.Errorf("usage: -compare base.json new.json")
	default:
		ok, err = withTmpRoot(func(tmpRoot string) (bool, error) {
			if *name != "" {
				return runOne(*name, *seed, *seconds, *trace == 1, tmpRoot)
			}
			return runAll(*seed, *seconds, *repeat, *out, *goldenTo, tmpRoot)
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench/e2e:", err)
	}
	if err != nil || !ok {
		os.Exit(1)
	}
}

// withTmpRoot runs fn with a fresh directory under tmpParent and removes it
// afterwards, whether fn returns, fails or panics.
func withTmpRoot(fn func(tmpRoot string) (bool, error)) (bool, error) {
	if err := os.MkdirAll(tmpParent, 0o777); err != nil {
		return false, err
	}
	tmpRoot, err := os.MkdirTemp(tmpParent, "run-")
	if err != nil {
		return false, err
	}
	defer func() {
		os.RemoveAll(tmpRoot)
		os.Remove(tmpParent) // fails, as it should, while another run uses it
	}()
	return fn(tmpRoot)
}

// measured is one workload's numbers from one seed.
type measured struct {
	Metrics   map[string]float64
	Losses    []float64 // untraced pass, warm-up included
	Samples   int       // timed steps behind the percentiles
	Attempted int
	Failed    int
	Problems  []string // failed output checks
}

func (m *measured) problem(format string, args ...any) {
	m.Problems = append(m.Problems, fmt.Sprintf(format, args...))
}

// warmProcess runs a discarded toy-size pass so the first workload's set-up
// does not pay for the process's own first use of the runtime and packages.
func warmProcess(tmpRoot string) error {
	_, err := runPass(workloads[1], toyScale, 1, budget{Steps: 1}, nil, false, tmpRoot)
	return err
}

// measureE2E runs sc.Setups-1 set-up-only passes and one full untraced
// pass, and returns the end-to-end metrics with the output checks a single
// workload allows.
func measureE2E(w workload, sc scale, seed uint64, b budget, tmpRoot string) (measured, error) {
	m := measured{Metrics: map[string]float64{}}
	var setups []float64
	var res passResult
	for i := 0; i < sc.Setups; i++ {
		last := i == sc.Setups-1
		pb := budget{}
		if last {
			pb = b
		}
		r, err := runPass(w, sc, seed, pb, nil, last, tmpRoot)
		if err != nil {
			return m, err
		}
		runtime.GC()
		setups = append(setups, r.SetupS)
		m.Attempted += r.Attempted
		m.Failed += r.Failed
		if i > 0 && !sameLosses(r.Losses, res.Losses) {
			m.problem("set-up %d reached different warm-up losses than set-up 0", i)
		}
		res = r
	}
	geo := w.geometry(sc)
	stepMs := make([]float64, len(res.StepNs))
	for i, ns := range res.StepNs {
		stepMs[i] = float64(ns) / 1e6
	}
	m.Samples = len(stepMs)
	m.Losses = res.Losses
	m.Metrics["tokens_per_s"] = float64(sc.Ranks*geo.Batch*geo.Seq*len(stepMs)) / res.WallS
	m.Metrics["step_ms_p50"] = median(stepMs)
	// Left out, not approximated, when too few steps were timed (toy scale,
	// the traced run's short reference pass).
	if p75, err := percentile(stepMs, 75); err == nil {
		m.Metrics["step_ms_p75"] = p75
	}
	m.Metrics["setup_s"] = median(setups)
	m.Metrics["heap_live_mb"] = res.HeapMB
	if m.Failed > 0 {
		m.problem("%d of %d steps were skipped or returned a non-finite loss", m.Failed, m.Attempted)
	}
	checkLosses(&m, w, sc, seed)
	return m, nil
}

// measureLayers runs the traced pass and returns the span- and
// counter-derived per-layer metrics. ref is the untraced measurement the
// overhead and the loss equality are taken against.
func measureLayers(w workload, sc scale, seed uint64, b budget, ref measured, tracePath, tmpRoot string) (measured, error) {
	m := measured{}
	rec := newRecorder(recorderCap)
	res, err := runPass(w, sc, seed, b, rec, false, tmpRoot)
	if err != nil {
		return m, err
	}
	m.Attempted, m.Failed = res.Attempted, res.Failed
	m.Samples = len(res.StepNs)
	m.Metrics = layerMetrics(sc, res, rec.spans, ref.Metrics["step_ms_p50"])
	if !sameLosses(res.Losses, ref.Losses) {
		m.problem("traced pass losses differ from the untraced pass")
	}
	if m.Failed > 0 {
		m.problem("traced pass: %d of %d steps failed", m.Failed, m.Attempted)
	}
	if tracePath != "" {
		if err := writeChromeTrace(tracePath, rec.spans, 2); err != nil {
			return m, err
		}
	}
	return m, nil
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timedBudget is the untraced pass's budget: the geometry's fixed step
// count, or with -seconds that long and at least sc.MinSteps steps.
func timedBudget(w workload, sc scale, seconds float64) budget {
	if seconds > 0 {
		return budget{Seconds: seconds, MinSteps: sc.MinSteps}
	}
	return budget{Steps: w.geometry(sc).Steps}
}

// printMetrics prints the metrics of defs that values holds, by name with
// their units.
func printMetrics(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

// measureAllLayers is --trace 1 for one workload. It splits the time: a
// short untraced reference for the overhead and the loss equality, the
// traced pass, then the probes (a fixed ~3 s).
func measureAllLayers(w workload, sc scale, seed uint64, seconds float64, tmpRoot string) (measured, error) {
	refB, trB := budget{Steps: sc.TracedSteps}, budget{Steps: sc.TracedSteps}
	if seconds > 0 {
		refB = budget{Seconds: seconds * 0.3, MinSteps: sc.TracedSteps}
		trB = budget{Seconds: seconds * 0.5, MinSteps: sc.TracedSteps}
	}
	refSc := sc
	refSc.Setups = 1
	ref, err := measureE2E(w, refSc, seed, refB, tmpRoot)
	if err != nil {
		return ref, err
	}
	m, err := measureLayers(w, sc, seed, trB, ref, "BENCH_e2e.trace.json", tmpRoot)
	if err != nil {
		return m, err
	}
	m.Attempted += ref.Attempted
	m.Failed += ref.Failed
	m.Problems = append(ref.Problems, m.Problems...)
	probes, err := runProbes(sc, tmpRoot)
	for k, v := range probes {
		m.Metrics[k] = v
	}
	return m, err
}

// runOne is the driver's form: one workload, one JSON line.
func runOne(name string, seed uint64, seconds float64, traced bool, tmpRoot string) (bool, error) {
	w, ok := workloadByName(name)
	if !ok {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	sc := fullScale
	if err := warmProcess(tmpRoot); err != nil {
		return false, err
	}
	defs := e2eMetrics
	var m measured
	var err error
	if traced {
		defs = layerMetricDefs
		m, err = measureAllLayers(w, sc, seed, seconds, tmpRoot)
	} else {
		m, err = measureE2E(w, sc, seed, timedBudget(w, sc, seconds), tmpRoot)
	}
	if err != nil {
		return false, err
	}
	for _, p := range m.Problems {
		fmt.Fprintf(os.Stderr, "%s: CHECK FAILED: %s\n", w.Name, p)
	}
	line := resultLine{
		Correct: len(m.Problems) == 0, Attempted: m.Attempted, Failed: m.Failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := m.Metrics[d.Name]
		if !ok {
			return false, fmt.Errorf("%s: metric %s was not measured (%d timed steps)", w.Name, d.Name, m.Samples)
		}
		line.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	fmt.Printf("%s seed %d: %d timed steps\n", w.Name, seed, m.Samples)
	enc, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(enc))
	return line.Correct, nil
}

// results is the file runAll writes and -compare reads: per workload and
// metric, one value per repeat (per-layer metrics are measured once).
type results struct {
	Seed      uint64                          `json:"seed"`
	GoVersion string                          `json:"go"`
	NumCPU    int                             `json:"nproc"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
	Probes    map[string]float64              `json:"probes"`
}

// runAll runs every workload: `repeat` untraced measurements, one traced
// pass, the probes once; prints every metric by name and unit; runs the
// cross-workload checks; writes the results file.
func runAll(seed uint64, seconds float64, repeat int, outPath, goldenTo, tmpRoot string) (bool, error) {
	sc := fullScale
	if err := warmProcess(tmpRoot); err != nil {
		return false, err
	}
	out := results{
		Seed: seed, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		Workloads: map[string]map[string][]float64{},
	}
	for _, w := range workloads {
		out.Workloads[w.Name] = map[string][]float64{}
	}
	var problems []string
	var first map[string]measured // each workload's measurement at `seed`
	for rep := 0; rep < repeat; rep++ {
		repSeed := seed + uint64(rep)
		byName := map[string]measured{}
		for _, w := range workloads {
			m, err := measureE2E(w, sc, repSeed, timedBudget(w, sc, seconds), tmpRoot)
			if err != nil {
				return false, err
			}
			byName[w.Name] = m
			for _, d := range e2eMetrics {
				out.Workloads[w.Name][d.Name] = append(out.Workloads[w.Name][d.Name], m.Metrics[d.Name])
			}
			for _, p := range m.Problems {
				problems = append(problems, fmt.Sprintf("%s seed %d: %s", w.Name, repSeed, p))
			}
			fmt.Printf("%-14s seed %d  %d timed steps  %d/%d steps failed\n",
				w.Name, repSeed, m.Samples, m.Failed, m.Attempted)
			printMetrics(e2eMetrics, m.Metrics)
		}
		problems = append(problems, checkThinRowsAgree(byName)...)
		if rep == 0 {
			first = byName
		}
	}
	traceBase := strings.TrimSuffix(outPath, filepath.Ext(outPath)) + ".trace."
	for _, w := range workloads {
		m, err := measureLayers(w, sc, seed, budget{Steps: sc.TracedSteps}, first[w.Name], traceBase+w.Name+".json", tmpRoot)
		if err != nil {
			return false, err
		}
		for _, p := range m.Problems {
			problems = append(problems, w.Name+": "+p)
		}
		fmt.Printf("%-14s traced, %d timed steps\n", w.Name, m.Samples)
		printMetrics(layerMetricDefs, m.Metrics)
		for k, v := range m.Metrics {
			out.Workloads[w.Name][k] = []float64{v}
		}
	}
	probes, err := runProbes(sc, tmpRoot)
	if err != nil {
		return false, err
	}
	out.Probes = probes
	fmt.Println("probes")
	printMetrics(layerMetricDefs, probes)

	if goldenTo != "" {
		if err := writeGolden(goldenTo, seed, first); err != nil {
			return false, err
		}
	}
	enc, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(outPath, append(enc, '\n'), 0o666); err != nil {
		return false, err
	}
	for _, p := range problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	if len(problems) == 0 {
		fmt.Printf("all output checks passed; results in %s\n", outPath)
	}
	return len(problems) == 0, nil
}
