package cliconfig

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	zeroinf "repro"
)

func TestAddTrainParsesSharedFlags(t *testing.T) {
	tf := TrainDefaults()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	AddTrain(fs, &tf)
	err := fs.Parse([]string{
		"-engine", "zero3", "-backend", "reference", "-topology", "2x2:inter=10",
		"-partition", "broadcast", "-prefetch", "3", "-overlap=false", "-tiling", "2",
		"-ranks", "4", "-steps", "7", "-batch", "1", "-hidden", "32", "-vocab", "32",
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := tf.WorkerSpec()
	if err != nil {
		t.Fatal(err)
	}
	e := spec.Engine
	if e.Stage != zeroinf.Stage3 || e.Infinity {
		t.Fatalf("engine not zero3: %+v", e)
	}
	if e.Topology == nil || e.Topology.Nodes != 2 || e.Topology.InterGBps != 10 {
		t.Fatalf("topology = %+v", e.Topology)
	}
	if e.Partition != zeroinf.PartitionBroadcast || e.PrefetchDepth != 3 || e.Overlap {
		t.Fatalf("fabric flags not applied: %+v", e)
	}
	if spec.Model.Tiling != 2 || spec.Model.Hidden != 32 {
		t.Fatalf("model = %+v", spec.Model)
	}
	if spec.Steps != 7 || spec.BatchPerRank != 1 {
		t.Fatalf("run length = %+v", spec)
	}
}

func TestEngineConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*EngineFlags)
	}{
		{"unknown engine", func(e *EngineFlags) { e.Engine = "zero9" }},
		{"unknown backend", func(e *EngineFlags) { e.Backend = "cuda" }},
		{"bad topology", func(e *EngineFlags) { e.Topology = "2x" }},
		{"bad partition", func(e *EngineFlags) { e.Partition = "stripe" }},
		{"bad params placement", func(e *EngineFlags) { e.Engine = "infinity"; e.Params = "dram" }},
		{"bad opt placement", func(e *EngineFlags) { e.Engine = "infinity"; e.Opt = "dram" }},
	} {
		e := EngineDefaults()
		tc.mut(&e)
		if _, err := e.EngineConfig(zeroinf.EngineConfig{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// exampleConfig exercises every EngineConfig field class: nested Adam,
// pointer Topology, strings, bools, ints, floats.
func exampleConfig() zeroinf.EngineConfig {
	return zeroinf.EngineConfig{
		Infinity: true, Params: zeroinf.OnNVMe, Optimizer: zeroinf.OnCPU,
		OffloadActivations: true, PrefetchDepth: 3, Overlap: true,
		NVMeDir: "/tmp/nvme", GPUMemory: 1 << 30, PreFragment: 4096,
		Adam:      zeroinf.DefaultAdamConfig(),
		LossScale: 2048, DynamicLossScale: true, Seed: 99, ClipNorm: 1.5,
		Backend:       "parallel",
		Partition:     zeroinf.PartitionBroadcast,
		Topology:      &zeroinf.Topology{Nodes: 2, NodeSize: 2, IntraGBps: 50, InterGBps: 10},
		CheckpointDir: "/tmp/ckpt", CheckpointEvery: 5,
	}
}

func TestEngineConfigJSONRoundTrip(t *testing.T) {
	for _, cfg := range []zeroinf.EngineConfig{{}, exampleConfig()} {
		data, err := MarshalEngineConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalEngineConfig(data)
		if err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !reflect.DeepEqual(cfg, got) {
			t.Fatalf("round trip changed config:\n  in:  %+v\n  out: %+v", cfg, got)
		}
		// Stability: a second marshal of the decoded value is byte-equal.
		data2, err := MarshalEngineConfig(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Fatalf("re-marshal unstable:\n  %s\n  %s", data, data2)
		}
	}
}

func TestUnmarshalEngineConfigRejectsGarbage(t *testing.T) {
	for _, tc := range []struct{ name, data string }{
		{"unknown top-level field", `{"Steps": 5}`},
		{"unknown nested field", `{"Topology": {"Nodess": 2}}`},
		{"trailing garbage", `{} {}`},
		{"wrong type", `{"Seed": "abc"}`},
		{"not json", `engine=zero3`},
	} {
		if _, err := UnmarshalEngineConfig([]byte(tc.data)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.data)
		}
	}
}

func TestWorkerSpecJSONRoundTrip(t *testing.T) {
	spec := WorkerSpec{
		Model:  zeroinf.ModelConfig{Vocab: 64, Hidden: 64, Heads: 4, Seq: 16, Layers: 2, Tiling: 2},
		Engine: exampleConfig(),
		Steps:  10, BatchPerRank: 2, GradAccumSteps: 3, DataSeed: 7,
	}
	data, err := MarshalWorkerSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalWorkerSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, got) {
		t.Fatalf("round trip changed spec:\n  in:  %+v\n  out: %+v", spec, got)
	}
	if _, err := UnmarshalWorkerSpec([]byte(`{"Model": {}, "Extra": 1}`)); err == nil {
		t.Error("unknown WorkerSpec field accepted")
	}
	if !strings.Contains(string(data), "Infinity") {
		t.Fatalf("spec JSON misses engine payload: %s", data)
	}
}

// FuzzEngineConfigJSON feeds arbitrary bytes through the strict decoder:
// anything that decodes must re-marshal and re-decode to the same value
// (round-trip stability), and the decoder must never accept input with
// unknown fields.
func FuzzEngineConfigJSON(f *testing.F) {
	seed, err := MarshalEngineConfig(exampleConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Stage": 2, "Overlap": true}`))
	f.Add([]byte(`{"Topology": {"Nodes": 2, "NodeSize": 4}}`))
	f.Add([]byte(`{"Unknown": 1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := UnmarshalEngineConfig(data)
		if err != nil {
			return // rejected input is fine; not crashing is the property
		}
		out, err := MarshalEngineConfig(cfg)
		if err != nil {
			t.Fatalf("decoded config failed to marshal: %v (input %q)", err, data)
		}
		cfg2, err := UnmarshalEngineConfig(out)
		if err != nil {
			t.Fatalf("own marshal output rejected: %v (json %s)", err, out)
		}
		out2, err := MarshalEngineConfig(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(out2) {
			t.Fatalf("round trip unstable:\n  %s\n  %s", out, out2)
		}
	})
}
