package harness

import (
	"fmt"
	"io"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/zero"
)

// The fig6c experiment is the real-engine counterpart of the paper's
// Fig. 6c (impact of bandwidth-centric partitioning): it trains the same
// stage-3 model on a multi-node topology under both partitioning strategies
// and reports each strategy's achieved aggregate bandwidth for the
// parameter-gather and gradient-reduce collectives. Per-parameter 1/dp
// slicing turns every gather into an all-links allgather; owner-rank
// broadcast funnels the whole parameter through the owner's links, so its
// achieved bandwidth is bounded by a single uplink. Both strategies produce
// bit-identical losses — the experiment fails if they diverge, or if
// slicing does not win on bandwidth.

// fig6cTopology is the canonical fabric the experiment (and its committed
// bench baseline) runs on: 4 nodes × 2 ranks, fast intra-node links, scarce
// inter-node uplinks.
func fig6cTopology() *comm.Topology {
	return &comm.Topology{Nodes: 4, NodeSize: 2, IntraGBps: 100, InterGBps: 10}
}

type fig6cRun struct {
	losses  []float64
	gather  comm.TrafficStats
	reduce  comm.TrafficStats
	total   comm.TrafficStats
	gatherK string
	reduceK string
}

func runFig6cVariant(part zero.Partitioning, topo *comm.Topology, ranks, steps int) (fig6cRun, error) {
	gatherK, reduceK := "allgatherhalfdecode", "reducescatterhalfdecode"
	if part == zero.PartitionBroadcast {
		gatherK, reduceK = "broadcasthalf", "reducehalfdecode"
	}
	run, err := trainSPMD(model.Config{Vocab: 32, Hidden: 32, Heads: 4, Seq: 12, Layers: 2}, ranks, steps, 6000, topo,
		newZero(zero.Config{Stage: zero.Stage3, PrefetchDepth: overlapDepth, Overlap: true, Partition: part}))
	tr := run.stats.CommTraffic
	return fig6cRun{
		losses: run.losses,
		gather: tr[gatherK], reduce: tr[reduceK],
		total:   run.traffic,
		gatherK: gatherK, reduceK: reduceK,
	}, err
}

func init() {
	register(Experiment{
		ID:    "fig6c",
		Title: "Fig. 6c (real engines): bandwidth-centric partitioning vs owner-rank broadcast",
		Claim: "per-parameter 1/dp slicing keeps every link busy, achieving a multiple of the owner-rank broadcast's aggregate bandwidth — with bit-identical training",
		Run: func(w io.Writer) error {
			const ranks, steps = 8, 3
			topo := fig6cTopology()
			slice, err := runFig6cVariant(zero.PartitionSlice, topo, ranks, steps)
			if err != nil {
				return fmt.Errorf("slice: %w", err)
			}
			bcast, err := runFig6cVariant(zero.PartitionBroadcast, topo, ranks, steps)
			if err != nil {
				return fmt.Errorf("broadcast: %w", err)
			}
			for s := range slice.losses {
				if slice.losses[s] != bcast.losses[s] {
					return fmt.Errorf("strategies diverged at step %d: %.17g vs %.17g",
						s, slice.losses[s], bcast.losses[s])
				}
			}
			fmt.Fprintf(w, "topology %s, %d ranks, %d steps (losses bit-identical across strategies)\n",
				topo, ranks, steps)
			tb := newTable(w)
			tb.row("partition", "collective", "ops", "MB moved", "MB inter", "sim ms", "agg GB/s")
			row := func(name, kind string, tr comm.TrafficStats) {
				tb.row(name, kind, tr.Ops,
					fmt.Sprintf("%.2f", float64(tr.Bytes())/1e6),
					fmt.Sprintf("%.2f", float64(tr.InterBytes)/1e6),
					fmt.Sprintf("%.3f", tr.Seconds*1e3),
					fmt.Sprintf("%.2f", tr.AggGBps()))
			}
			row("slice", slice.gatherK, slice.gather)
			row("slice", slice.reduceK, slice.reduce)
			row("broadcast", bcast.gatherK, bcast.gather)
			row("broadcast", bcast.reduceK, bcast.reduce)
			tb.flush()
			fmt.Fprintf(w, "  param gather: slicing %.2f GB/s vs broadcast %.2f GB/s (%.1fx)\n",
				slice.gather.AggGBps(), bcast.gather.AggGBps(),
				slice.gather.AggGBps()/bcast.gather.AggGBps())
			fmt.Fprintf(w, "  whole step:   slicing %.3f ms vs broadcast %.3f ms simulated transfer\n\n",
				slice.total.Seconds*1e3, bcast.total.Seconds*1e3)
			emitRecord(Record{
				Name:  "zinf/fig6c/slice/gather",
				Unit:  "GB/s",
				Value: slice.gather.AggGBps(),
				Extra: map[string]float64{
					"sim_ms":      slice.gather.Seconds * 1e3,
					"bytes":       float64(slice.gather.Bytes()),
					"inter_bytes": float64(slice.gather.InterBytes),
				},
			})
			emitRecord(Record{
				Name:  "zinf/fig6c/broadcast/gather",
				Unit:  "GB/s",
				Value: bcast.gather.AggGBps(),
				Extra: map[string]float64{
					"sim_ms":      bcast.gather.Seconds * 1e3,
					"bytes":       float64(bcast.gather.Bytes()),
					"inter_bytes": float64(bcast.gather.InterBytes),
				},
			})
			if slice.gather.AggGBps() <= bcast.gather.AggGBps() {
				return fmt.Errorf("1/dp slicing gather bandwidth %.2f GB/s did not beat owner broadcast %.2f GB/s",
					slice.gather.AggGBps(), bcast.gather.AggGBps())
			}
			return nil
		},
	})
}
