package comm

// Topology-aware accounting (paper Sec. 6.1): the goroutine fabric and the
// loopback socket mesh put every rank one hop from every other, which makes
// the paper's bandwidth-centric argument unreproducible — an owner-rank
// broadcast and a per-parameter 1/dp allgather move the same bytes over the
// same (single) link class. A Topology groups ranks into nodes with distinct
// intra-node and inter-node link bandwidths, and every collective's
// byte flow and simulated transfer cost are accounted per link class, as the
// hierarchical algorithm a real fabric would run — an intra-node phase, then
// an inter-node phase among node leaders — would incur them.
//
// Two properties are contractual:
//
//   - A topology never changes bytes, only TrafficStats. It is a cost model
//     and nothing else: both transports move data the same way with or
//     without one, and reductions always accumulate in global rank order
//     (the deterministic-reduction configuration of real collective
//     libraries), so the decomposition governs which links are charged for
//     which phase's bytes — and therefore the simulated cost — never the
//     data path or the arithmetic.
//
//   - Accounting is allocation-free: per-kind counters live in a fixed
//     array inside the collective execution context, and the cost model is
//     pure arithmetic, so the zero-allocation steady-state contract holds
//     with a topology installed.
//
// The cost model is a store-and-forward switch model: each rank has one
// link to its node switch (intra class) and each node one uplink to the
// global switch (inter class). A phase's simulated time is the busiest
// link's bytes over its class bandwidth (the model is bandwidth-centric like
// the paper's); a collective's time is the sum of its phases. Achieved
// aggregate bandwidth — the Fig. 6c metric — is total bytes crossing links
// divided by total simulated time.
//
// Alongside the model, TrafficStats carries measured counters: wall-clock
// seconds spent moving each kind's data and the bytes observed on the
// transport that carried them (kernel copy volume on the in-memory
// transport; on the socket transport the TCP frame bytes the reporting rank
// itself wrote).

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Topology groups the world's ranks into equal nodes and parameterizes the
// two link classes. The zero value of each knob is replaced by the
// corresponding Default* constant when the topology is installed.
type Topology struct {
	// NodeSize is the number of consecutive ranks per node (node i owns
	// ranks [i*NodeSize, (i+1)*NodeSize)). The world size must be a
	// multiple of NodeSize.
	NodeSize int
	// Nodes, when positive, is the expected node count; installation
	// rejects a world whose size is not Nodes*NodeSize. Zero derives the
	// node count from the world size.
	Nodes int
	// IntraGBps / InterGBps are the link bandwidths in GB/s (1e9 bytes/s).
	IntraGBps, InterGBps float64
}

// Default link parameters (NVLink-class intra, IB-class inter).
const (
	DefaultIntraGBps = 100.0
	DefaultInterGBps = 12.5
)

// setDefaults fills zero bandwidth knobs.
func (t *Topology) setDefaults() {
	if t.IntraGBps <= 0 {
		t.IntraGBps = DefaultIntraGBps
	}
	if t.InterGBps <= 0 {
		t.InterGBps = DefaultInterGBps
	}
}

// String renders the topology in ParseTopology's spec format.
func (t *Topology) String() string {
	if t == nil {
		return "flat"
	}
	return fmt.Sprintf("%dx%d:intra=%g:inter=%g", t.Nodes, t.NodeSize, t.IntraGBps, t.InterGBps)
}

// ParseTopology parses a topology spec of the form
//
//	<nodes>x<ranksPerNode>[:intra=<GB/s>][:inter=<GB/s>]
//
// e.g. "4x2" or "2x4:intra=100:inter=10"; a bandwidth must be finite and
// positive. The empty spec returns a nil topology (the flat single-node
// fabric).
func ParseTopology(spec string) (*Topology, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ":")
	nk := strings.Split(parts[0], "x")
	if len(nk) != 2 {
		return nil, fmt.Errorf("comm: topology %q: want <nodes>x<ranksPerNode>", spec)
	}
	n, err1 := strconv.Atoi(nk[0])
	k, err2 := strconv.Atoi(nk[1])
	if err1 != nil || err2 != nil || n < 1 || k < 1 {
		return nil, fmt.Errorf("comm: topology %q: bad node counts", spec)
	}
	t := &Topology{Nodes: n, NodeSize: k}
	for _, opt := range parts[1:] {
		kv := strings.SplitN(opt, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("comm: topology %q: bad option %q", spec, opt)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("comm: topology %q: bad value %q", spec, opt)
		}
		if kv[0] != "intra" && kv[0] != "inter" {
			return nil, fmt.Errorf("comm: topology %q: unknown option %q", spec, kv[0])
		}
		// An explicit 0 would silently become the default in setDefaults —
		// reject it instead of simulating a link the user zeroed out.
		if !finitePositive(v) {
			return nil, fmt.Errorf("comm: topology %q: %s bandwidth must be positive and finite, got %s", spec, kv[0], kv[1])
		}
		if kv[0] == "intra" {
			t.IntraGBps = v
		} else {
			t.InterGBps = v
		}
	}
	t.setDefaults()
	return t, nil
}

// finitePositive reports whether a link bandwidth is usable.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// normalizeTopology validates t against a world of size ranks and returns
// the installed form: a defensive copy with defaulted bandwidths and the
// node count derived from the world size. A nil topology normalizes to nil
// (the flat fabric).
func normalizeTopology(t *Topology, size int) (*Topology, error) {
	if t == nil {
		return nil, nil
	}
	cp := *t
	cp.setDefaults()
	if !finitePositive(cp.IntraGBps) || !finitePositive(cp.InterGBps) {
		return nil, fmt.Errorf("comm: topology bandwidths intra=%g inter=%g must be positive and finite", cp.IntraGBps, cp.InterGBps)
	}
	if cp.NodeSize < 1 {
		return nil, fmt.Errorf("comm: topology node size %d < 1", cp.NodeSize)
	}
	if size%cp.NodeSize != 0 {
		return nil, fmt.Errorf("comm: world size %d not a multiple of node size %d", size, cp.NodeSize)
	}
	if cp.Nodes > 0 && cp.Nodes*cp.NodeSize != size {
		return nil, fmt.Errorf("comm: topology %dx%d does not cover world size %d", cp.Nodes, cp.NodeSize, size)
	}
	cp.Nodes = size / cp.NodeSize
	return &cp, nil
}

// ValidateTopology reports whether t can be installed on a world of size
// ranks (nil is always valid: the flat fabric). Launchers call this to fail
// fast — before spawning worker processes — with the same errors the
// installation itself would produce.
func ValidateTopology(t *Topology, size int) error {
	_, err := normalizeTopology(t, size)
	return err
}

// CheckTopology reports whether want describes the fabric this
// communicator's world was built on: nil if want normalizes to the installed
// topology, an error naming both otherwise. Engine configurations that
// restate the topology are checked with it, so a disagreement between the
// engine's recipe and the world it was handed is an error, not a silent
// choice of one.
func (c *Comm) CheckTopology(want *Topology) error {
	want, err := normalizeTopology(want, c.Size())
	if err != nil {
		return err
	}
	have := c.Topology()
	if (want == nil) != (have == nil) || (want != nil && *want != *have) {
		return fmt.Errorf("comm: world has topology %s, engine configured %s", have, want)
	}
	return nil
}

// Topology returns the installed topology (nil = flat).
func (c *Comm) Topology() *Topology { return c.world.t.topology() }

// nodes returns the node count of the installed topology (1 when flat).
//
//zinf:hotpath
func (w *collCtx) nodes() int {
	if w.topo == nil {
		return 1
	}
	return w.size / w.topo.NodeSize
}

// hier reports whether the cost model charges the hierarchical algorithms.
//
//zinf:hotpath
func (w *collCtx) hier() bool { return w.nodes() > 1 }

// nodeOf returns the node index owning rank.
//
//zinf:hotpath
func (w *collCtx) nodeOf(rank int) int {
	if w.topo == nil {
		return 0
	}
	return rank / w.topo.NodeSize
}

// TrafficStats accumulates one collective kind's modeled byte flow and
// simulated transfer cost, plus the measured counterparts observed on the
// transport that actually carried the data.
type TrafficStats struct {
	// Ops is the number of collectives of this kind performed.
	Ops int64
	// IntraBytes / InterBytes are the modeled bytes that crossed intra-node
	// and inter-node links (each logical transfer counted once, classified
	// by the link it crossed; staged hierarchical phases count each phase's
	// crossing).
	IntraBytes, InterBytes int64
	// Seconds is the simulated transfer time under the topology's link
	// bandwidths (0 when no topology is installed).
	Seconds float64
	// MeasIntraBytes / MeasInterBytes are the bytes observed moving on the
	// transport, classified by the same intra/inter link taxonomy: on the
	// in-memory transport they equal the modeled bytes (the kernel's copies
	// are the wire); on the socket transport they are the TCP frame bytes
	// (headers included) the reporting rank wrote, classified by whether
	// the receiving peer shares its node — each rank's own, so a world's
	// wire volume is the sum over its ranks.
	MeasIntraBytes, MeasInterBytes int64
	// MeasSeconds is the measured wall-clock time spent on this kind's
	// collectives. On the in-memory transport it is the sum over ranks of
	// each rank's destination compute time (for an all-reduce, the wait for
	// every owner's reduced span and the copy of the peers' spans as well);
	// concurrent ranks overlap, so it can exceed the wall time. On the
	// socket transport it is the reporting rank's own time inside the
	// transport — shipping its contributions at issue plus completing,
	// which includes waiting for straggler peers. It is collective time,
	// not pure wire time.
	MeasSeconds float64
}

// Bytes returns the total modeled bytes moved over any link.
//
//zinf:hotpath
func (t TrafficStats) Bytes() int64 { return t.IntraBytes + t.InterBytes }

// MeasBytes returns the total measured bytes moved over any link.
//
//zinf:hotpath
func (t TrafficStats) MeasBytes() int64 { return t.MeasIntraBytes + t.MeasInterBytes }

// AggGBps returns the achieved aggregate bandwidth in GB/s — total modeled
// bytes over all links divided by simulated time (0 when nothing was
// timed). This is the Fig. 6c metric: partitioning strategies that keep
// every link busy achieve a multiple of a single link's bandwidth.
func (t TrafficStats) AggGBps() float64 {
	if t.Seconds <= 0 {
		return 0
	}
	return float64(t.Bytes()) / t.Seconds / 1e9
}

// MeasGBps returns the measured wall-clock bandwidth in GB/s — measured
// bytes over measured seconds (0 when nothing was measured). Unlike
// AggGBps, this reflects what the transport actually achieved, including
// scheduling and (on the socket transport) TCP and straggler effects.
func (t TrafficStats) MeasGBps() float64 {
	if t.MeasSeconds <= 0 {
		return 0
	}
	return float64(t.MeasBytes()) / t.MeasSeconds / 1e9
}

// add accumulates other into t.
//
//zinf:hotpath
func (t *TrafficStats) add(o TrafficStats) {
	t.Ops += o.Ops
	t.IntraBytes += o.IntraBytes
	t.InterBytes += o.InterBytes
	t.Seconds += o.Seconds
	t.MeasIntraBytes += o.MeasIntraBytes
	t.MeasInterBytes += o.MeasInterBytes
	t.MeasSeconds += o.MeasSeconds
}

// Traffic returns a snapshot of the world's per-collective traffic, keyed
// by collective name, skipping kinds that never ran. The snapshot
// allocates; it is an observability call, not a hot-path one. On the socket
// transport every rank keeps its own counters: the modeled side is the same
// on all of them, the measured side is that rank's bytes and seconds.
func (c *Comm) Traffic() map[string]TrafficStats {
	out := make(map[string]TrafficStats)
	c.world.t.snapshotTraffic(func(k opKind, st TrafficStats) {
		if st.Ops > 0 {
			out[k.String()] = st
		}
	})
	return out
}

// TrafficTotal returns the sum of all collectives' traffic.
func (c *Comm) TrafficTotal() TrafficStats {
	var tot TrafficStats
	c.world.t.snapshotTraffic(func(_ opKind, st TrafficStats) {
		tot.add(st)
	})
	return tot
}

// ---------------------------------------------------------------------------
// Cost model. All helpers run where the transport records a collective —
// under the in-memory transport's mutex, by the last rank to arrive; on a
// socket rank's own goroutine — and perform no allocation.

// phase charges one collective phase: perIntra/perInter are the busiest
// intra/inter link's bytes, totIntra/totInter the bytes crossing each class
// in the phase.
//
//zinf:hotpath
func (w *collCtx) phase(st *TrafficStats, perIntra, perInter, totIntra, totInter int64) {
	st.IntraBytes += totIntra
	st.InterBytes += totInter
	if w.topo == nil {
		return
	}
	st.Seconds += float64(perIntra)/(w.topo.IntraGBps*1e9) + float64(perInter)/(w.topo.InterGBps*1e9)
}

// accountAllGather models an allgather of S contribution bytes per rank:
// on one node a p-ring (every link carries (p-1)S); across nodes an
// intra-node gather at the leaders, an inter-node ring among leaders over kS
// node chunks, then an intra-node ring distributing the (N-1)kS remote
// bytes.
//
//zinf:hotpath
func (w *collCtx) accountAllGather(st *TrafficStats, S int64) {
	p, N := int64(w.size), int64(w.nodes())
	if p == 1 || S == 0 {
		return
	}
	if !w.hier() {
		w.phase(st, (p-1)*S, 0, p*(p-1)*S, 0)
		return
	}
	k := p / N
	w.phase(st, (k-1)*S, 0, N*(k-1)*S, 0)           // intra gather at leaders
	w.phase(st, 0, (N-1)*k*S, 0, N*(N-1)*k*S)       // inter ring among leaders
	w.phase(st, (N-1)*k*S, 0, N*(k-1)*(N-1)*k*S, 0) // intra distribution
}

// accountReduceScatter models a reduce-scatter of M contribution bytes per
// rank (shard m = M/p): on one node a p-ring over m chunks; across nodes an
// intra-node reduce-scatter over M followed by an inter-node reduce-scatter
// of the node partials among same-slot ranks (each node uplink carries
// (N-1)M/N).
//
//zinf:hotpath
func (w *collCtx) accountReduceScatter(st *TrafficStats, M int64) {
	p, N := int64(w.size), int64(w.nodes())
	if p == 1 || M == 0 {
		return
	}
	if !w.hier() {
		m := M / p
		w.phase(st, (p-1)*m, 0, p*(p-1)*m, 0)
		return
	}
	k := p / N
	w.phase(st, (k-1)*M/k, 0, N*(k-1)*M, 0) // intra reduce-scatter
	w.phase(st, 0, (N-1)*M/N, 0, (N-1)*M)   // inter reduce-scatter of node partials
}

// accountAllReduce models an allreduce of M bytes per rank as
// reduce-scatter + allgather volumes.
//
//zinf:hotpath
func (w *collCtx) accountAllReduce(st *TrafficStats, M int64) {
	if w.size == 1 || M == 0 {
		return
	}
	w.accountReduceScatter(st, M)
	w.accountAllGather(st, M/int64(w.size))
}

// accountRooted models the two rooted collectives over M bytes per rank: a
// broadcast from the root, or (up) a reduction into it. On one node both
// are a star through the root's link. Across nodes a broadcast sends M once
// to each remote node leader over the root's uplink, then each node
// distributes intra; a reduction first reduces raw contributions at each
// node leader intra, then ships one M-sized node partial per remote node
// into the root's uplink.
//
//zinf:hotpath
func (w *collCtx) accountRooted(st *TrafficStats, M int64, up bool) {
	p, N := int64(w.size), int64(w.nodes())
	if p == 1 || M == 0 {
		return
	}
	if !w.hier() {
		w.phase(st, (p-1)*M, 0, (p-1)*M, 0)
		return
	}
	k := p / N
	if up {
		w.phase(st, (k-1)*M, 0, N*(k-1)*M, 0) // intra raw reduction at leaders
	}
	w.phase(st, 0, (N-1)*M, 0, (N-1)*M) // the root's uplink to or from the other leaders
	if !up {
		w.phase(st, (k-1)*M, 0, N*(k-1)*M, 0) // intra distribution in every node
	}
}

// accountScalar models the 8-byte scalar collectives: a reduction tree up
// and down (bytes negligible).
//
//zinf:hotpath
func (w *collCtx) accountScalar(st *TrafficStats) {
	p, N := int64(w.size), int64(w.nodes())
	if p == 1 {
		return
	}
	const sz = 8
	intra := 2 * (p - N) * sz
	inter := 2 * (N - 1) * sz
	w.phase(st, intra, inter, intra, inter)
}

// account records one completed collective's modeled traffic and simulated
// cost from any one rank's payload pl (the lengths it reads are equal on
// every rank). Runs where the transport records the collective (see the
// cost model above).
//
//zinf:hotpath
func (w *collCtx) account(kind opKind, pl payload) {
	st := &w.traffic[kind]
	st.Ops++
	if w.size == 1 {
		return
	}
	const f16 = 2
	switch kind {
	case opBroadcastHalf:
		w.accountRooted(st, int64(len(pl.hdst))*f16, false)
	case opAllGatherHalfDecode:
		w.accountAllGather(st, int64(len(pl.hsrc))*f16)
	case opAllGatherEncodeHalf:
		w.accountAllGather(st, int64(len(pl.fsrc))*f16) // moves encoded fp16 shards
	case opReduceScatterHalfDecode:
		w.accountReduceScatter(st, int64(len(pl.hsrc))*f16)
	case opAllReduceHalf:
		w.accountAllReduce(st, int64(len(pl.hdst))*f16)
	case opReduceHalfDecode:
		w.accountRooted(st, int64(len(pl.hsrc))*f16, true)
	case opAllReduceScalar, opAllReduceMax:
		w.accountScalar(st)
	}
}
