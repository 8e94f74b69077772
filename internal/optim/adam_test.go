package optim

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestAdamDescendsQuadratic(t *testing.T) {
	// Minimize f(x) = Σ (x_i - c_i)²/2; grad = x - c.
	const n = 8
	c := make([]float32, n)
	x := make([]float32, n)
	tensor.NewRNG(1).FillNormal(c, 1)
	cfg := AdamConfig{LR: 0.05, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	g, m, v := make([]float32, n), make([]float32, n), make([]float32, n)
	for step := 1; step <= 500; step++ {
		for i := range g {
			g[i] = x[i] - c[i]
		}
		StepVec(cfg, step, x, g, m, v)
	}
	for i := range x {
		if math.Abs(float64(x[i]-c[i])) > 0.05 {
			t.Fatalf("x[%d]=%g did not converge to %g", i, x[i], c[i])
		}
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the very first Adam step moves by ~lr*sign(g).
	cfg := AdamConfig{LR: 0.1, Beta1: 0.9, Beta2: 0.999, Eps: 1e-12}
	x, m, v := []float32{0}, []float32{0}, []float32{0}
	StepVec(cfg, 1, x, []float32{3.7}, m, v)
	if math.Abs(float64(x[0])+0.1) > 1e-6 {
		t.Fatalf("first step moved to %g, want ~-0.1", x[0])
	}
}

// The ZeRO property: updating shards independently, each over its own
// moment vectors, equals updating the full vector, exactly.
func TestAdamShardedEqualsReplicated(t *testing.T) {
	const n, shards = 24, 4
	cfg := DefaultAdamConfig()
	cfg.WeightDecay = 0.01
	rng := tensor.NewRNG(7)
	params := make([]float32, n)
	rng.FillNormal(params, 1)
	m, v := make([]float32, n), make([]float32, n)
	shardParams := make([][]float32, shards)
	shardM, shardV := make([][]float32, shards), make([][]float32, shards)
	for s := 0; s < shards; s++ {
		shardParams[s] = append([]float32(nil), params[s*n/shards:(s+1)*n/shards]...)
		shardM[s], shardV[s] = make([]float32, n/shards), make([]float32, n/shards)
	}

	g := make([]float32, n)
	for step := 1; step <= 10; step++ {
		rng.FillNormal(g, 1)
		StepVec(cfg, step, params, g, m, v)
		for s := 0; s < shards; s++ {
			StepVec(cfg, step, shardParams[s], g[s*n/shards:(s+1)*n/shards], shardM[s], shardV[s])
		}
	}
	for s := 0; s < shards; s++ {
		for i, v := range shardParams[s] {
			if v != params[s*n/shards+i] {
				t.Fatalf("shard %d elem %d: %g != %g", s, i, v, params[s*n/shards+i])
			}
		}
	}
}

func TestLossScalerDynamics(t *testing.T) {
	s := NewLossScaler(1024)
	s.GrowthInterval = 3
	// Overflow halves and skips.
	if !s.Update(true) {
		t.Fatal("overflow did not skip")
	}
	if s.Scale != 512 {
		t.Fatalf("scale after overflow = %g", s.Scale)
	}
	// Three clean steps double.
	for i := 0; i < 3; i++ {
		if s.Update(false) {
			t.Fatal("clean step skipped")
		}
	}
	if s.Scale != 1024 {
		t.Fatalf("scale after growth = %g", s.Scale)
	}
	if s.Skipped() != 1 {
		t.Fatalf("skipped = %d", s.Skipped())
	}
}

func TestLossScalerFloorsAtOne(t *testing.T) {
	s := NewLossScaler(2)
	s.Update(true)
	s.Update(true)
	s.Update(true)
	if s.Scale != 1 {
		t.Fatalf("scale floored at %g, want 1", s.Scale)
	}
}

func TestStaticLossScalerNeverGrows(t *testing.T) {
	s := StaticLossScaler(128)
	for i := 0; i < 1000; i++ {
		s.Update(false)
	}
	if s.Scale != 128 {
		t.Fatalf("static scale changed to %g", s.Scale)
	}
}

func TestUnscaleCheck(t *testing.T) {
	g := []float32{2, 4, 8}
	if UnscaleCheck(g, 2) {
		t.Fatal("clean grads flagged as overflow")
	}
	if g[0] != 1 || g[2] != 4 {
		t.Fatalf("unscale wrong: %v", g)
	}
	bad := []float32{1, float32(math.Inf(1))}
	if !UnscaleCheck(bad, 2) {
		t.Fatal("inf not detected")
	}
	if bad[0] != 1 {
		t.Fatal("overflowed grads were modified")
	}
}

func TestF32BytesRoundTrip(t *testing.T) {
	src := []float32{0, 1, -2.5, 3e-20, float32(math.Inf(-1))}
	b := make([]byte, 4*len(src))
	tensor.F32ToBytes(b, src)
	dst := make([]float32, len(src))
	tensor.F32FromBytes(dst, b)
	for i := range src {
		if math.Float32bits(dst[i]) != math.Float32bits(src[i]) {
			t.Fatalf("byte round trip [%d]: %g != %g", i, dst[i], src[i])
		}
	}
}

func BenchmarkAdamStep(b *testing.B) {
	const n = 1 << 16
	cfg := DefaultAdamConfig()
	x, g := make([]float32, n), make([]float32, n)
	m, v := make([]float32, n), make([]float32, n)
	tensor.NewRNG(1).FillNormal(g, 1)
	b.SetBytes(n * OptimizerStateBytesPerParam)
	for i := 0; i < b.N; i++ {
		StepVec(cfg, i+1, x, g, m, v)
	}
	// 14 nominal FLOPs per element, the zinf-roofline convention for Adam.
	b.ReportMetric(14*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
