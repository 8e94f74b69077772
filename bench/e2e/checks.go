package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// golden holds the loss trajectories (warm-up included) of the full-scale
// dense and thin geometries at GoldenSeed. A parent-versus-change run that
// alters the arithmetic fails against it; a change that means to alter the
// arithmetic regenerates it with -write-golden and says so.
type golden struct {
	Seed  uint64    `json:"seed"`
	Dense []float64 `json:"dense"`
	Thin  []float64 `json:"thin"`
}

//go:embed golden_losses.json
var goldenJSON []byte

func loadGolden() (golden, error) {
	var g golden
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// checkLosses runs the checks one workload's own trajectory allows: equal
// to the golden file at its seed (where sc has one; the common prefix, since
// a time-bounded run takes as many steps as fit), and on the dense row a
// falling loss.
func checkLosses(m *measured, w workload, sc scale, seed uint64) {
	if sc.Golden {
		g, err := loadGolden()
		if err != nil {
			m.problem("golden_losses.json: %v", err)
		} else if seed == g.Seed {
			want := g.Thin
			if w.Dense {
				want = g.Dense
			}
			if !sameLosses(m.Losses, want) {
				m.problem("losses differ from golden_losses.json")
			}
		}
	}
	timed := m.Losses[min(sc.Warmup, len(m.Losses)):]
	if w.Dense && len(timed) >= 20 {
		if first, last := mean(timed[:10]), mean(timed[len(timed)-10:]); !(last < first) {
			m.problem("loss does not fall: mean of the last 10 timed steps %.4f, of the first 10 %.4f", last, first)
		}
	}
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// checkThinRowsAgree is the cross-engine, cross-transport, cross-tier
// oracle: the four thin rows see the same batches, so their trajectories
// are byte-equal.
func checkThinRowsAgree(byName map[string]measured) []string {
	var problems []string
	var ref string
	for _, w := range workloads {
		m, ok := byName[w.Name]
		if w.Dense || !ok {
			continue
		}
		if ref == "" {
			ref = w.Name
			continue
		}
		if !sameLosses(m.Losses, byName[ref].Losses) {
			problems = append(problems, fmt.Sprintf("%s losses differ from %s", w.Name, ref))
		}
	}
	return problems
}

func writeGolden(path string, seed uint64, byName map[string]measured) error {
	g := golden{Seed: seed}
	for _, w := range workloads {
		if w.Dense {
			g.Dense = byName[w.Name].Losses
		} else if g.Thin == nil {
			g.Thin = byName[w.Name].Losses
		}
	}
	enc, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o666)
}
