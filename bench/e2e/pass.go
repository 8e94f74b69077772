package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	zeroinf "repro"
)

// budget bounds the timed part of a pass: a fixed step count, or at least
// Seconds of wall time and at least MinSteps steps.
type budget struct {
	Steps    int
	Seconds  float64
	MinSteps int
}

// passResult is everything one pass (set-up, warm-up, timed steps) of one
// workload yields, as seen by rank 0.
type passResult struct {
	SetupS float64   // pass start -> end of the warm-up steps
	StepNs []int64   // wall time around each timed Engine.Step
	WallS  float64   // first timed step start -> last timed step end
	Losses []float64 // warm-up and timed steps
	HeapMB float64   // HeapAlloc after GC, engines still open (0 unless asked)

	Attempted, Failed int // steps, all ranks

	// Traced passes only: the counters after every step (index 0 is the
	// first warm-up step) and the comm traffic of the timed window.
	Counters []counters
	Traffic  map[string]zeroinf.CommTraffic
}

// rankEngine is one rank's engine behind the two calls a pass makes. The
// untraced pass builds it through the public API; the traced pass through
// the internal constructors (layers.go), which also fills counters.
type rankEngine struct {
	step     func(tok, tgt []int, batch int) (zeroinf.StepResult, error)
	counters func() counters
	close    func()
}

func publicEngine(w workload, sc scale, c *zeroinf.Comm, nvmeDir string) (rankEngine, error) {
	g, err := zeroinf.NewModel(w.model(sc))
	if err != nil {
		return rankEngine{}, err
	}
	e, err := zeroinf.NewEngine(w.engineConfig(nvmeDir), c, g)
	if err != nil {
		return rankEngine{}, err
	}
	return rankEngine{step: e.Step, close: e.Close}, nil
}

// runPass builds the workload's world and engines, runs the warm-up and the
// timed steps as a closed loop (each of the ranks issues its next Step when
// the previous returned), and tears everything down. rec, when set, makes
// this the traced pass: rank 0 records spans into it. tmpRoot holds the
// NVMe store's directory, removed before returning.
func runPass(w workload, sc scale, seed uint64, b budget, rec *recorder, wantHeap bool, tmpRoot string) (passResult, error) {
	var res passResult
	geo := w.geometry(sc)
	mcfg := w.model(sc)
	start := time.Now()

	nvmeDir := ""
	if w.Engine == "inf" {
		dir, err := os.MkdirTemp(tmpRoot, "nvme-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		nvmeDir = dir
	}
	comms, closeWorld, err := openWorld(sc.Ranks, w.Sock)
	if err != nil {
		return res, err
	}

	// stopAfter is the number of timed steps to take. In a time-bounded
	// pass rank 0 sets it one step ahead: every step holds a blocking
	// collective, so no rank can finish step i+1 before rank 0 entered it,
	// which is after rank 0 stored the value at the end of step i.
	var stopAfter atomic.Int64
	stopAfter.Store(int64(b.Steps))
	if b.Seconds > 0 {
		stopAfter.Store(math.MaxInt64)
	}

	losses := make([][]float64, sc.Ranks)
	failed := make([]int, sc.Ranks)
	errc := make(chan error, sc.Ranks)
	var timedStart time.Time
	var finished, closed sync.WaitGroup
	release := make(chan struct{})
	for r := 0; r < sc.Ranks; r++ {
		finished.Add(1)
		closed.Add(1)
		go func(r int) {
			defer closed.Done()
			var eng rankEngine
			var err error
			var rankRec *recorder // only rank 0 records
			if r == 0 {
				rankRec = rec
			}
			if rec != nil {
				eng, err = tracedEngine(w, sc, comms[r], nvmeDir, rankRec)
			} else {
				eng, err = publicEngine(w, sc, comms[r], nvmeDir)
			}
			if err != nil {
				errc <- fmt.Errorf("rank %d: %w", r, err)
				return
			}
			defer eng.close()
			for s := 0; int64(s-sc.Warmup) < stopAfter.Load(); s++ {
				tok, tgt := zeroinf.SyntheticBatch(seed+uint64(s*1000+r), mcfg, geo.Batch)
				if r == 0 && s == sc.Warmup {
					timedStart = time.Now()
					res.SetupS = timedStart.Sub(start).Seconds()
					if rec != nil {
						res.Traffic = comms[0].Traffic()
					}
				}
				t0 := time.Now()
				span := rankRec.begin(spanStep)
				sr, err := eng.step(tok, tgt, geo.Batch)
				rankRec.end(span)
				d := time.Since(t0)
				if err != nil {
					errc <- fmt.Errorf("rank %d step %d: %w", r, s, err)
					return
				}
				if sr.Skipped || math.IsNaN(sr.Loss) || math.IsInf(sr.Loss, 0) {
					failed[r]++
				}
				losses[r] = append(losses[r], sr.Loss)
				if r != 0 {
					continue
				}
				if rec != nil {
					res.Counters = append(res.Counters, eng.counters())
				}
				if s < sc.Warmup {
					continue
				}
				res.StepNs = append(res.StepNs, int64(d))
				timed := len(res.StepNs)
				timeUp := b.Seconds > 0 && time.Since(timedStart).Seconds() >= b.Seconds && timed >= b.MinSteps
				if stopAfter.Load() == math.MaxInt64 && (timeUp || rec.nearlyFull()) {
					stopAfter.Store(int64(timed + 1))
				}
			}
			if r == 0 {
				if len(res.StepNs) == 0 {
					res.SetupS = time.Since(start).Seconds()
				} else {
					res.WallS = time.Since(timedStart).Seconds()
				}
				if rec != nil && len(res.StepNs) > 0 {
					res.Traffic = trafficDelta(res.Traffic, comms[0].Traffic())
				}
			}
			finished.Done()
			<-release // engines stay open while the heap is measured
		}(r)
	}

	done := make(chan struct{})
	go func() { finished.Wait(); close(done) }()
	select {
	case err := <-errc:
		// The other ranks are blocked in a collective the failed rank will
		// never join, and a socket peer answers a closed world with a
		// panic: leave the world open, the caller exits the process.
		return passResult{}, err
	case <-done:
	}
	if wantHeap {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		res.HeapMB = float64(ms.HeapAlloc) / (1 << 20)
	}
	close(release)
	closed.Wait()
	closeWorld()

	res.Losses = losses[0]
	for r := range losses {
		res.Attempted += len(losses[r])
		res.Failed += failed[r]
		if !sameLosses(losses[r], losses[0]) {
			return res, fmt.Errorf("%s: rank %d reports a different loss trajectory than rank 0", w.Name, r)
		}
	}
	return res, nil
}

// sameLosses reports whether the common prefix of a and b is byte-equal
// and not empty.
func sameLosses(a, b []float64) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return n > 0
}
