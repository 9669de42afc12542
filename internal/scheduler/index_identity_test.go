package scheduler

import (
	"fmt"
	"math/rand"
	"testing"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/topology"
)

// identityCase is one workload TestScanVsIndexIdentical schedules under NR,
// RA and RC, once through Run and once through referenceRun.
type identityCase struct {
	name  string
	flows []*flow.Flow
	cfg   Config // Algorithm is set per run
}

// sweepPinned are benchmark sweep draws (seed, op) on which the engine once
// diverged from the reference: a candidate cache built for one flow was
// warm-adopted by the next flow on the same link and deadline, whose window
// restarted before the slot the previous flow had just made endpoint-busy.
// On (101, 182) flow 77's placement was refused by the schedule and counted
// as a deadline miss the reference does not have.
var sweepPinned = [][2]int64{
	{101, 182}, {101, 559}, {101, 996}, {103, 584}, {103, 650}, {104, 1080},
	{105, 271}, {105, 500}, {105, 546}, {106, 65}, {106, 257}, {109, 1051},
}

// TestScanVsIndexIdentical holds the production engine to the reference
// formulation in reference_test.go: on every case all three algorithms must
// produce the same schedulability verdict, failed flow and transmission
// sequence. The cases are a testbed × seed grid, draws shaped like the
// benchmark's sweep workload (20–150 flows, periods up to 2^2 or 2^4 s,
// peer-to-peer and centralized, 3–8 channels), the pinned draws above, and
// one FixedRho and one TxBudget case. -short keeps a subset that still
// includes the first pinned draw.
func TestScanVsIndexIdentical(t *testing.T) {
	for _, tc := range identityCases(t, testing.Short()) {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, alg := range []Algorithm{NR, RA, RC} {
				cfg := tc.cfg
				cfg.Algorithm = alg
				indexed, err := Run(cloneFlows(tc.flows), cfg)
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				ref, err := referenceRun(cloneFlows(tc.flows), cfg)
				if err != nil {
					t.Fatalf("%v: reference: %v", alg, err)
				}
				if indexed.Schedulable != ref.Schedulable || indexed.FailedFlow != ref.FailedFlow {
					t.Fatalf("%v: schedulable/failed flow differ: index=%v/%d reference=%v/%d",
						alg, indexed.Schedulable, indexed.FailedFlow, ref.Schedulable, ref.FailedFlow)
				}
				it, rt := indexed.Schedule.Txs(), ref.Schedule.Txs()
				if len(it) != len(rt) {
					t.Fatalf("%v: %d vs %d transmissions", alg, len(it), len(rt))
				}
				for i := range it {
					if it[i] != rt[i] {
						t.Fatalf("%v: tx %d differs: index=%+v reference=%+v", alg, i, it[i], rt[i])
					}
				}
			}
		})
	}
}

// identityCases builds TestScanVsIndexIdentical's workloads.
func identityCases(t *testing.T, short bool) []identityCase {
	t.Helper()
	var cases []identityCase
	// Testbed × seed grid: 60 peer-to-peer flows, 5 channels, periods up to
	// 2^2 s, routed without access points.
	grid := []struct {
		name string
		mk   func(int64) (*topology.Testbed, error)
	}{{"indriya", topology.Indriya}, {"wustl", topology.WUSTL}}
	seeds := int64(3)
	if short {
		grid, seeds = grid[:1], 1
	}
	for _, tg := range grid {
		tb, err := tg.mk(1)
		if err != nil {
			t.Fatal(err)
		}
		net := newSweepNet(t, tb, 5)
		for seed := int64(1); seed <= seeds; seed++ {
			fs, err := flow.Generate(rand.New(rand.NewSource(seed)), net.gc, flow.GenConfig{
				NumFlows: 60, MinPeriodExp: 0, MaxPeriodExp: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := routing.Assign(fs, net.gc, routing.Config{Traffic: routing.PeerToPeer}); err != nil {
				t.Fatal(err)
			}
			cases = append(cases, identityCase{fmt.Sprintf("%s seed=%d", tg.name, seed), fs, net.config()})
		}
	}

	tb, err := topology.Indriya(1)
	if err != nil {
		t.Fatal(err)
	}
	nets := map[int]*sweepNet{}
	draw := func(seed, op int64) identityCase {
		ch, gen, traffic, wseed := sweepParams(seed, op)
		net := nets[ch]
		if net == nil {
			net = newSweepNet(t, tb, ch)
			nets[ch] = net
		}
		fs, err := net.workload(gen, traffic, wseed)
		if err != nil {
			t.Fatal(err)
		}
		return identityCase{fmt.Sprintf("sweep seed=%d op=%d", seed, op), fs, net.config()}
	}
	sweepOps := int64(40)
	pinned := sweepPinned
	if short {
		sweepOps, pinned = 6, pinned[:1]
	}
	for op := int64(0); op < sweepOps; op++ {
		cases = append(cases, draw(1, op))
	}
	for _, p := range pinned {
		cases = append(cases, draw(p[0], p[1]))
	}

	fixed := draw(sweepPinned[0][0], sweepPinned[0][1])
	fixed.name += " FixedRho"
	fixed.cfg.FixedRho = true
	cases = append(cases, fixed)

	// TxBudget: 1–3 attempts per hop, drawn per flow.
	budget := draw(1, 3)
	budget.name += " TxBudget"
	rng := rand.New(rand.NewSource(7))
	for _, f := range budget.flows {
		f.TxBudget = make([]int, len(f.Route))
		for h := range f.TxBudget {
			f.TxBudget[h] = 1 + rng.Intn(3)
		}
	}
	return append(cases, budget)
}

// sweepNet is one Indriya network as the benchmark's sweep workload derives
// it for a channel count: communication graph at PRR ≥ 0.9, reuse-graph hop
// matrix, and two access points.
type sweepNet struct {
	gc  *graph.Graph
	hop *graph.HopMatrix
	aps []int
	nch int
}

func newSweepNet(t *testing.T, tb *topology.Testbed, nch int) *sweepNet {
	t.Helper()
	chs := topology.Channels(nch)
	gc, err := tb.CommGraph(chs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		t.Fatal(err)
	}
	return &sweepNet{gc: gc, hop: gr.AllPairsHop(), aps: topology.AccessPoints(gc, 2), nch: nch}
}

// config is the schedule configuration the public wsan.Network.Schedule
// applies by default: ρ_t = 2 with retransmissions.
func (n *sweepNet) config() Config {
	return Config{NumChannels: n.nch, RhoT: 2, HopGR: n.hop, Retransmit: true}
}

// workload draws and routes a flow set as wsan.Network.GenerateWorkload
// does: access points excluded as endpoints, routed with them.
func (n *sweepNet) workload(gen flow.GenConfig, traffic routing.Traffic, seed int64) ([]*flow.Flow, error) {
	gen.Exclude = n.aps
	fs, err := flow.Generate(rand.New(rand.NewSource(seed)), n.gc, gen)
	if err != nil {
		return nil, err
	}
	return fs, routing.Assign(fs, n.gc, routing.Config{Traffic: traffic, APs: n.aps})
}

// sweepParams draws op i's trial parameters from a sweep seed exactly as
// perfbench/sweep.go does: 20–150 flows, period exponents 0 to 2 or 4,
// peer-to-peer or centralized traffic, 3–8 channels, and a workload seed.
func sweepParams(seed, i int64) (channels int, gen flow.GenConfig, traffic routing.Traffic, wseed int64) {
	rng := rand.New(rand.NewSource(sweepMix(seed, i)))
	gen.NumFlows = 20 + rng.Intn(150-20+1)
	gen.MaxPeriodExp = []int{2, 4}[rng.Intn(2)]
	traffic = []routing.Traffic{routing.PeerToPeer, routing.Centralized}[rng.Intn(2)]
	channels = 3 + rng.Intn(8-3+1)
	wseed = rng.Int63()
	return channels, gen, traffic, wseed
}

// sweepMix is the benchmark's per-op seed mixer (a splitmix64 finalizer).
func sweepMix(seed, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// TestPlaceRCFallbackPrefersPermissive pins the fallback rule of Algorithm 1
// when laxity never reaches zero: keep the earliest feasible slot, and among
// placements tied on that slot the most permissive (highest-ρ) one. The old
// code kept whatever findSlot returned last — the lowest-ρ, most aggressive
// placement — even when the extra ρ steps bought no earlier slot.
//
// Constructed scenario on a 10-node line (G_R distances = index gaps),
// placing link 0→1 with λ_R pinned to 3 and ρ_t = 2, two offsets:
//
//	slot 0, offset 0: {8→9, 6→7}  load 2, compatible at ρ=3 and ρ=2
//	slot 0, offset 1: {3→4}       load 1, compatible only at ρ=2
//	                              (Dist(3,1) = 2 < 3)
//	slot 1+:          empty
//
// The ρ search sees: ρ=∞ → slot 1 (slot 0 full); ρ=3 → (0,0) (offset 1
// incompatible); ρ=2 → (0,1) (least-loaded of the two). With the deadline
// budget forced negative, the fixed fallback keeps (0,0) — slot 0 beats
// slot 1, and on the slot-0 tie the ρ=3 placement stands. The old rule
// returned (0,1). The scan leg runs the same scenario through the
// reference engine of reference_test.go.
func TestPlaceRCFallbackPrefersPermissive(t *testing.T) {
	g := graph.New(10)
	for i := 0; i < 9; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	hop := g.AllPairsHop()
	link := flow.Link{From: 0, To: 1}
	for _, scan := range []bool{false, true} {
		sched, err := schedule.New(8, 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range []schedule.Tx{
			{FlowID: 1, Link: flow.Link{From: 8, To: 9}, Slot: 0, Offset: 0},
			{FlowID: 2, Link: flow.Link{From: 6, To: 7}, Slot: 0, Offset: 0},
			{FlowID: 3, Link: flow.Link{From: 3, To: 4}, Slot: 0, Offset: 1},
		} {
			if err := sched.Place(tx); err != nil {
				t.Fatal(err)
			}
		}
		cfg := Config{Algorithm: RC, NumChannels: 2, RhoT: 2, HopGR: hop}
		// remaining=10 forces laxity = 6 − s − 10 < 0 at every candidate,
		// so the ρ search runs to exhaustion and must fall back.
		const remaining = 10
		var find func(rho int) (int, int, bool)
		var place func() (int, int, bool)
		eng := newEngine(cfg, sched, 3)
		if scan {
			ref := &refEngine{cfg: cfg, sched: sched, lambdaR: 3}
			find = func(rho int) (int, int, bool) { return ref.find(link, 0, 6, rho) }
			post := make([]flow.Link, remaining)
			for i := range post {
				post[i] = link
			}
			place = func() (int, int, bool) { return ref.place(link, 0, 6, post) }
		} else {
			f := &flow.Flow{ID: 0, Src: 0, Dst: 1, Period: 8, Deadline: 7,
				Route: []flow.Link{link}}
			eng.setFlow(f)
			tx := schedule.Tx{FlowID: 0, Link: link}
			find = func(rho int) (int, int, bool) { return eng.findSlot(&tx, 0, 6, rho) }
			place = func() (int, int, bool) { return eng.placeOne(f, &tx, 0, 6, remaining) }
		}

		// Sanity: the ρ steps see the placements the scenario intends.
		if s, c, ok := find(rhoInf); !ok || s != 1 {
			t.Fatalf("scan=%v: ρ=∞ placement = (%d,%d,%v), want slot 1", scan, s, c, ok)
		}
		if s, c, ok := find(3); !ok || s != 0 || c != 0 {
			t.Fatalf("scan=%v: ρ=3 placement = (%d,%d,%v), want (0,0)", scan, s, c, ok)
		}
		if s, c, ok := find(2); !ok || s != 0 || c != 1 {
			t.Fatalf("scan=%v: ρ=2 placement = (%d,%d,%v), want (0,1)", scan, s, c, ok)
		}

		slot, offset, ok := place()
		if !ok {
			t.Fatalf("scan=%v: placement failed", scan)
		}
		if slot != 0 || offset != 0 {
			t.Errorf("scan=%v: fallback = (%d,%d), want the highest-ρ slot-0 placement (0,0)",
				scan, slot, offset)
		}
		if !scan && eng.mets.laxityFallbacks != 1 {
			t.Errorf("laxityFallbacks = %d, want 1", eng.mets.laxityFallbacks)
		}
	}
}
