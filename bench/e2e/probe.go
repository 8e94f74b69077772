package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	zeroinf "repro"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/module"
	"repro/internal/nvme"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// timeCalls runs fn once to warm up and then iters times, and returns the
// median seconds per call.
func timeCalls(iters int, fn func()) float64 {
	fn()
	d := make([]float64, iters)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = time.Since(t0).Seconds()
	}
	return median(d)
}

// runProbes times each layer's public entry points in isolation, at the
// shapes the workloads use: the largest parameter (sc.ProbeElems) as the
// message and P/ranks as the shard. Files go under tmpRoot.
func runProbes(sc scale, tmpRoot string) (map[string]float64, error) {
	m := map[string]float64{}
	n := sc.ProbeElems
	ref := tensor.Reference()

	// tensor: activations (64 rows) times the largest weight matrix.
	const rows = 64
	k := sc.Model.Hidden
	cols := n / k
	a, b, c := make([]float32, rows*k), make([]float32, n), make([]float32, rows*cols)
	tensor.NewRNG(1).FillNormal(a, 1)
	tensor.NewRNG(2).FillNormal(b, 1)
	sec := timeCalls(sc.ProbeIters, func() { ref.MatMul(c, a, b, rows, k, cols) })
	m["tensor.probe.matmul_gflops"] = 2 * float64(rows) * float64(k) * float64(cols) / sec / 1e9

	half := make([]tensor.Half, n)
	codecBytes := float64(n) * (4 + tensor.HalfBytes)
	sec = timeCalls(sc.ProbeIters, func() { ref.EncodeHalf(half, b) })
	m["tensor.probe.encode_half_gbps"] = codecBytes / sec / 1e9
	sec = timeCalls(sc.ProbeIters, func() { ref.DecodeHalf(b, half) })
	m["tensor.probe.decode_half_gbps"] = codecBytes / sec / 1e9

	// optim: one rank's shard of the whole model.
	mcfg := sc.Model
	mcfg.Seq = sc.Thin.Seq
	gpt, err := model.NewGPT(mcfg)
	if err != nil {
		return nil, err
	}
	params := int(module.NumParams(gpt))
	shard := params / sc.Ranks
	p, g := make([]float32, shard), make([]float32, shard)
	mom, vel := make([]float32, shard), make([]float32, shard)
	tensor.NewRNG(3).FillNormal(g, 0.01)
	step := 0
	sec = timeCalls(sc.ProbeIters, func() {
		step++
		optim.StepVecOn(ref, optim.DefaultAdamConfig(), step, p, g, mom, vel)
	})
	m["optim.probe.adam_melem_per_s"] = float64(shard) / sec / 1e6

	for _, tr := range []struct {
		name string
		sock bool
	}{{"mem", false}, {"sock", true}} {
		if err := probeComm(sc, tr.sock, "comm.probe."+tr.name+".", m); err != nil {
			return nil, err
		}
	}

	// nvme: an optimizer-state region [master|m|v] of the largest shard.
	regionBytes := int64(comm.ShardLen(n, sc.Ranks)) * 12
	const regions = 8
	file, err := nvme.NewTempFileStore(tmpRoot, regions*regionBytes)
	if err != nil {
		return nil, err
	}
	for _, st := range []struct {
		name  string
		store nvme.Store
	}{{"file", file}, {"mem", nvme.NewMemStore(regions * regionBytes)}} {
		err := probeNVMe(sc, st.store, regionBytes, regions, "nvme.probe."+st.name+".", m)
		if cerr := st.store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}

	if err := probeCkpt(sc, params, tmpRoot, m); err != nil {
		return nil, err
	}
	return m, nil
}

// probeComm times the three collectives the engines' steps are made of, and
// the scalar all-reduce, on a world of sc.Ranks over one transport. Rank 0
// holds the clock; a collective returns on rank 0 when every rank's
// contribution has been combined.
func probeComm(sc scale, sock bool, prefix string, m map[string]float64) error {
	comms, closeWorld, err := openWorld(sc.Ranks, sock)
	if err != nil {
		return err
	}
	defer closeWorld()
	n, dp := sc.ProbeElems, sc.Ranks
	shard, padded := comm.ShardLen(n, dp), comm.PaddedLen(n, dp)
	msgBytes := float64(n) * tensor.HalfBytes
	var secs [4]float64
	var wg sync.WaitGroup
	for r := 0; r < dp; r++ {
		wg.Add(1)
		go func(c *zeroinf.Comm) {
			defer wg.Done()
			vals := make([]float32, padded)
			tensor.NewRNG(uint64(10+c.Rank())).FillNormal(vals, 0.01)
			src := make([]tensor.Half, padded)
			tensor.EncodeHalf(src, vals)
			full := make([]float32, padded)
			part := make([]float32, shard)
			buf := make([]tensor.Half, n)
			t := [4]float64{
				timeCalls(sc.ProbeIters, func() { c.AllGatherHalfDecode(full, src[:shard]) }),
				timeCalls(sc.ProbeIters, func() { c.ReduceScatterHalfDecode(part, src) }),
				timeCalls(sc.ProbeIters, func() {
					copy(buf, src) // the sum lands in place; start from the same values
					c.AllReduceHalf(buf)
				}),
				timeCalls(sc.ProbeIters*10, func() { c.AllReduceScalar(1) }),
			}
			if c.Rank() == 0 {
				secs = t
			}
		}(comms[r])
	}
	wg.Wait()
	m[prefix+"allgather_gbps"] = msgBytes / secs[0] / 1e9
	m[prefix+"reducescatter_gbps"] = msgBytes / secs[1] / 1e9
	m[prefix+"allreduce_gbps"] = msgBytes / secs[2] / 1e9
	m[prefix+"scalar_us"] = secs[3] * 1e6
	return nil
}

// probeNVMe times whole-region writes, then reads, through a default-option
// engine over store, cycling through the regions.
func probeNVMe(sc scale, store nvme.Store, regionBytes int64, regions int, prefix string, m map[string]float64) error {
	e := nvme.NewEngine(store, nvme.Options{})
	defer e.Close()
	buf := make([]byte, regionBytes)
	for i := range buf {
		buf[i] = byte(i)
	}
	var firstErr error
	i := 0
	next := func() nvme.Region {
		i++
		return nvme.Region{Offset: int64(i%regions) * regionBytes, Size: regionBytes}
	}
	keep := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	sec := timeCalls(max(sc.ProbeIters, regions), func() { keep(e.WriteRegion(buf, next()).Wait()) })
	m[prefix+"write_gbps"] = float64(regionBytes) / sec / 1e9
	sec = timeCalls(sc.ProbeIters, func() { keep(e.ReadRegion(buf, next()).Wait()) })
	m[prefix+"read_gbps"] = float64(regionBytes) / sec / 1e9
	return firstErr
}

// probeCkpt commits generations the size of the workloads' state: one
// rank-state blob (fp32 master + two Adam moments of a shard) per rank and
// one fp16 weights blob. stage_gbps is the copy into the writer's staging
// buffers, the part a training step would wait for; commit_ms is from the
// Submit that completes the generation to its durable MANIFEST.
func probeCkpt(sc scale, params int, tmpRoot string, m map[string]float64) error {
	dir, err := os.MkdirTemp(tmpRoot, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := ckpt.NewWriter(dir, ckpt.WriterOptions{World: sc.Ranks})
	if err != nil {
		return err
	}
	rankBlob := make([]byte, params/sc.Ranks*12)
	weights := make([]byte, params*2)
	staged := float64(len(rankBlob)*sc.Ranks + len(weights))
	gens := max(2, sc.ProbeIters/10)
	stage, commit := make([]float64, gens), make([]float64, gens)
	var firstErr error
	for g := range stage {
		var ticket *ckpt.Ticket // shared by every file of the generation
		var submitted time.Time
		for r := 0; r <= sc.Ranks; r++ {
			name, blob := ckpt.RankFileName(r), rankBlob
			if r == sc.Ranks {
				name, blob = ckpt.WeightsName, weights
			}
			t0 := time.Now()
			st := w.Stage()
			st.Write(blob) // Staging.Write cannot fail
			submitted = time.Now()
			stage[g] += submitted.Sub(t0).Seconds()
			ticket = w.Submit(uint64(g+1), g+1, name, st)
		}
		if err := ticket.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("ckpt probe generation %d: %w", g+1, err)
		}
		commit[g] = time.Since(submitted).Seconds()
	}
	if err := w.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	m["ckpt.probe.stage_gbps"] = staged / median(stage) / 1e9
	m["ckpt.probe.commit_ms"] = median(commit) * 1e3
	return firstErr
}
