package comm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// TestParseTopologyErrorPaths is the table-driven catalogue of rejected
// specs — the same checks zinf-launch runs (via ValidateTopology) to fail
// fast before spawning worker processes.
func TestParseTopologyErrorPaths(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string // substring of the error
	}{
		{"x", "bad node counts"},
		{"2", "want <nodes>x<ranksPerNode>"},
		{"2x2x2", "want <nodes>x<ranksPerNode>"},
		{"ax2", "bad node counts"},
		{"2xb", "bad node counts"},
		{"0x4", "bad node counts"},
		{"2x0", "bad node counts"},
		{"-1x2", "bad node counts"},
		{"2x2:wat=3", "unknown option"},
		{"2x2:intra=abc", "bad value"},
		{"2x2:intra=-1", "bad value"},
		{"2x2:intra", "bad option"},
		{"2x2:intra=0", "bandwidth must be positive"},
		{"2x2:inter=0", "bandwidth must be positive"},
		{"2x2:=", "bad value"},
		{"2x2:intra=NaN", "intra bandwidth must be positive and finite, got NaN"},
		{"2x2:inter=Inf", "inter bandwidth must be positive and finite, got Inf"},
		{"2x2:inter=+Inf", "inter bandwidth must be positive and finite, got +Inf"},
	} {
		_, err := ParseTopology(tc.spec)
		if err == nil {
			t.Errorf("spec %q accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %q: error %q does not mention %q", tc.spec, err, tc.want)
		}
	}
}

// TestValidateTopologyErrorPaths covers the world-size checks a parsed
// topology still has to pass at installation.
func TestValidateTopologyErrorPaths(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo *Topology
		size int
		want string // "" = valid
	}{
		{"nil-is-flat", nil, 4, ""},
		{"exact-cover", &Topology{Nodes: 2, NodeSize: 2}, 4, ""},
		{"derived-nodes", &Topology{NodeSize: 2}, 6, ""},
		{"zero-node-size", &Topology{NodeSize: 0}, 4, "node size 0 < 1"},
		{"negative-node-size", &Topology{NodeSize: -2}, 4, "node size -2 < 1"},
		{"indivisible", &Topology{NodeSize: 3}, 4, "not a multiple"},
		{"rank-count-mismatch", &Topology{Nodes: 3, NodeSize: 2}, 4, "does not cover"},
	} {
		err := ValidateTopology(tc.topo, tc.size)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestWorldOptionsConstruction covers comm.New: defaults, validation, and
// the installed configuration being visible to ranks.
func TestWorldOptionsConstruction(t *testing.T) {
	// Nil transport: in-memory world of Size ranks.
	w, err := New(WorldOptions{Size: 3, Topology: &Topology{NodeSize: 3}, CodecBackend: tensor.Reference()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Size() != 3 {
		t.Fatalf("Size() = %d", w.Size())
	}
	if topo := w.Comm(0).Topology(); topo == nil || topo.NodeSize != 3 || topo.Nodes != 1 {
		t.Fatalf("installed topology = %+v", topo)
	}

	if _, err := New(WorldOptions{}); err == nil {
		t.Error("zero Size accepted with nil transport")
	}
	if _, err := New(WorldOptions{Size: 2, Topology: &Topology{NodeSize: 3}}); err == nil {
		t.Error("indivisible topology accepted")
	}
	if _, err := New(WorldOptions{Size: 2, Topology: &Topology{NodeSize: 2, IntraGBps: math.NaN()}}); err == nil ||
		!strings.Contains(err.Error(), "intra=NaN") {
		t.Errorf("NaN intra bandwidth: error %v", err)
	}
	// A transport's world size wins over a contradicting Size.
	tr := newMemTransport(2)
	if _, err := New(WorldOptions{Size: 5, Transport: tr}); err == nil {
		t.Error("Size 5 accepted over a size-2 transport")
	}
	w2, err := New(WorldOptions{Transport: newMemTransport(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Size() != 2 {
		t.Fatalf("transport-derived Size() = %d", w2.Size())
	}
}

// TestCheckTopology: an engine recipe that restates the topology must agree
// with the world it runs on — the same topology (even non-normalized) passes,
// a different one, or flat against installed either way round, errors.
func TestCheckTopology(t *testing.T) {
	onTopo := newTestWorld(t, 2, &Topology{NodeSize: 2}).Comm(0)
	if err := onTopo.CheckTopology(&Topology{NodeSize: 2}); err != nil {
		t.Errorf("matching topology rejected: %v", err)
	}
	if err := onTopo.CheckTopology(&Topology{NodeSize: 1}); err == nil {
		t.Error("conflicting topology accepted")
	}
	if err := onTopo.CheckTopology(&Topology{NodeSize: 3}); err == nil {
		t.Error("topology that cannot cover the world accepted")
	}
	if err := onTopo.CheckTopology(nil); err == nil {
		t.Error("flat accepted on a world with a topology installed")
	}
	onFlat := newTestWorld(t, 2, nil).Comm(0)
	if err := onFlat.CheckTopology(nil); err != nil {
		t.Errorf("flat-on-flat check failed: %v", err)
	}
	err := onFlat.CheckTopology(&Topology{NodeSize: 2})
	if err == nil || !strings.Contains(err.Error(), "world has topology flat, engine configured 1x2") {
		t.Errorf("topology on a flat world: error %v does not name both fabrics", err)
	}
}

// TestWorldCommPanicsOnUnhostedRank: a socket world hosts exactly one rank;
// asking for another panics loudly instead of silently training as the
// wrong rank.
func TestWorldCommPanicsOnUnhostedRank(t *testing.T) {
	tr, err := NewSockTransport(SockConfig{Rank: 0, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(WorldOptions{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer func() {
		if recover() == nil {
			t.Error("Comm(1) on a size-1 sock world did not panic")
		}
	}()
	w.Comm(1)
}
