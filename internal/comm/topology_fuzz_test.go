package comm

import (
	"math"
	"testing"
)

// FuzzParseTopology throws arbitrary specs at the parser: it must never
// panic, any topology it accepts must have finite, positive bandwidths, and
// it must survive a String() → reparse round trip with an identical
// rendering (so configs logged by one run can be replayed by the next).
func FuzzParseTopology(f *testing.F) {
	f.Add("")
	f.Add("4x2")
	f.Add("2x2:intra=NaN")
	f.Add("2x2:inter=Inf")
	f.Add("2x2:intra=0")
	f.Add("x:::=")
	f.Fuzz(func(t *testing.T, spec string) {
		topo, err := ParseTopology(spec)
		if err != nil {
			if topo != nil {
				t.Fatalf("ParseTopology(%q) returned both a topology and error %v", spec, err)
			}
			return
		}
		if topo == nil {
			if spec != "" {
				t.Fatalf("ParseTopology(%q) = nil, nil for a non-empty spec", spec)
			}
			return
		}
		for _, bw := range []float64{topo.IntraGBps, topo.InterGBps} {
			if !(bw > 0) || math.IsInf(bw, 0) {
				t.Fatalf("ParseTopology(%q) accepted bandwidth %g", spec, bw)
			}
		}
		rendered := topo.String()
		again, err := ParseTopology(rendered)
		if err != nil {
			t.Fatalf("reparse of %q (from %q) failed: %v", rendered, spec, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("String/reparse not stable: %q -> %q (original spec %q)", rendered, got, spec)
		}
	})
}
