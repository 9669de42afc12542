package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"wsan/internal/flow"
	"wsan/internal/graph"
	"wsan/internal/routing"
	"wsan/internal/schedule"
	"wsan/internal/scheduler"
	"wsan/internal/soak"
	"wsan/internal/topology"
)

// The churn workload is the scheduler's write path at the soak operating
// point: 500 active flows on 8 channels of the Indriya testbed, and one
// delta per op — add, remove, reroute around a failed relay, re-budget, and
// every churnBatchEvery ops a node-fault batch through ApplyDeltaBatch. One
// caller drives one grid, so the placeRC shard pool runs isolated. The
// survey, the simulator and the server stay out of the measured window.
const (
	churnFlows      = 500
	churnChannels   = 8
	churnBatchEvery = 50
	churnBatchSize  = 8
	// churnOutcomeOps is the op prefix delta_commit_ratio and the
	// cross-run digest are taken over.
	churnOutcomeOps = 4000
)

type churnKind int

const (
	churnAdd churnKind = iota
	churnRemove
	churnReroute
	churnRebudget
	churnBatch
)

var churnSpan = [...]string{
	churnAdd:      "scheduler.delta.add",
	churnRemove:   "scheduler.delta.remove",
	churnReroute:  "scheduler.delta.reroute",
	churnRebudget: "scheduler.delta.reroute",
	churnBatch:    "scheduler.delta.batch",
}

// churnOp is one delta. Committed ops are logged with deep copies so the
// replay grid sees exactly what the live grid saw.
type churnOp struct {
	kind   churnKind
	f      *flow.Flow // churnAdd: the flow admitted; churnRemove: the flow retired
	id     int
	route  []flow.Link // churnReroute
	budget []int       // churnRebudget
	batch  []scheduler.BatchOp
}

// churnGrid is one schedule and the workload placed on it.
type churnGrid struct {
	cfg    scheduler.Config
	sched  *schedule.Schedule
	active []*flow.Flow // sorted by ID (priority order)
}

// churnStats counts what the applied deltas did.
type churnStats struct {
	deltas, committed, infeasible     int64
	placementOps, removalOps          int64
	fbEvict, fbCascade, fbFull, units int64
}

func (s *churnStats) fallback(fb scheduler.Fallback) {
	switch fb {
	case scheduler.FallbackEvict:
		s.fbEvict++
	case scheduler.FallbackCascade:
		s.fbCascade++
	case scheduler.FallbackFull:
		s.fbFull++
	}
}

// apply runs one delta against the grid, recording the scheduler call as a
// span. It returns whether the delta committed and the call's duration.
func (g *churnGrid) apply(rec *recorder, op *churnOp, st *churnStats) (bool, time.Duration, error) {
	sp := rec.start(churnSpan[op.kind])
	t0 := time.Now()
	var (
		res *scheduler.DeltaResult
		err error
	)
	switch op.kind {
	case churnAdd:
		res, err = scheduler.AddFlowDelta(g.sched, g.active, op.f, g.cfg)
	case churnRemove:
		res, err = scheduler.RemoveFlowDelta(g.sched, op.id, nil)
	case churnReroute:
		res, err = scheduler.RerouteFlowDelta(g.sched, g.active, op.id, op.route, g.cfg)
	case churnRebudget:
		f := g.flow(op.id)
		old := f.TxBudget
		f.TxBudget = op.budget
		res, err = scheduler.RerouteFlowDelta(g.sched, g.active, op.id, f.Route, g.cfg)
		if err != nil || !res.Schedulable {
			f.TxBudget = old
		}
	case churnBatch:
		var br *scheduler.BatchResult
		br, err = scheduler.ApplyDeltaBatch(g.sched, g.active, op.batch, g.cfg)
		if err == nil {
			res = &br.DeltaResult
			if br.Schedulable {
				g.active = br.Flows
				for _, fb := range br.Fallbacks {
					st.fallback(fb)
				}
			}
		}
	}
	d := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return false, d, err
	}
	st.deltas++
	st.placementOps += int64(res.PlacementOps)
	st.removalOps += int64(res.RemovalOps)
	if !res.Schedulable {
		st.infeasible++
		return false, d, nil
	}
	st.committed++
	switch op.kind {
	case churnAdd:
		g.insert(op.f)
		st.units++
	case churnRemove:
		for j, f := range g.active {
			if f.ID == op.id {
				op.f = f
				g.active = append(g.active[:j], g.active[j+1:]...)
				break
			}
		}
		st.units++
	case churnReroute:
		f := g.flow(op.id)
		f.Route = append([]flow.Link(nil), op.route...)
		f.TxBudget = flow.AdaptBudget(f.TxBudget, len(op.route))
		st.units++
	case churnRebudget:
		st.units++
	case churnBatch:
		st.units += int64(len(op.batch))
	}
	if op.kind != churnBatch {
		st.fallback(res.Fallback)
	}
	return true, d, nil
}

func (g *churnGrid) flow(id int) *flow.Flow {
	i := sort.Search(len(g.active), func(i int) bool { return g.active[i].ID >= id })
	if i < len(g.active) && g.active[i].ID == id {
		return g.active[i]
	}
	panic(fmt.Sprintf("churn: flow %d not active", id))
}

func (g *churnGrid) insert(f *flow.Flow) {
	i := sort.Search(len(g.active), func(i int) bool { return g.active[i].ID >= f.ID })
	g.active = append(g.active, nil)
	copy(g.active[i+1:], g.active[i:])
	g.active[i] = f
}

// churnWorld is the set-up: the derived graphs and the flow pool.
type churnWorld struct {
	gc       *graph.Graph
	hop      *graph.HopMatrix
	hyper    int
	pool     []*flow.Flow
	surveyMs float64
	alloc    float64
	deriveMs float64
}

// newChurnWorld builds the soak operating point's network and flow pool;
// they are the same for every seed, which drives only the delta stream.
func newChurnWorld() (*churnWorld, error) {
	w := &churnWorld{}
	a0 := allocBytes()
	t0 := time.Now()
	tb, err := topology.Indriya(1)
	if err != nil {
		return nil, err
	}
	w.surveyMs = float64(time.Since(t0)) / float64(time.Millisecond)
	w.alloc = float64(allocBytes()-a0) / (1 << 20)
	t0 = time.Now()
	chs := topology.Channels(churnChannels)
	if w.gc, err = tb.CommGraph(chs, 0.9); err != nil {
		return nil, err
	}
	gr, err := tb.ReuseGraph(chs)
	if err != nil {
		return nil, err
	}
	w.hop = gr.AllPairsHop()
	w.deriveMs = float64(time.Since(t0)) / float64(time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	w.pool, err = flow.Generate(rng, w.gc, flow.GenConfig{NumFlows: 2 * churnFlows, MinPeriodExp: 2, MaxPeriodExp: 4})
	if err != nil {
		return nil, err
	}
	if err := routing.Assign(w.pool, w.gc, routing.Config{Traffic: routing.PeerToPeer}); err != nil {
		return nil, err
	}
	w.hyper, err = flow.Hyperperiod(w.pool)
	return w, err
}

// newGrid returns an empty grid over the world's network.
func (w *churnWorld) newGrid() (*churnGrid, error) {
	sched, err := schedule.New(w.hyper, churnChannels, w.gc.Len())
	if err != nil {
		return nil, err
	}
	return &churnGrid{
		cfg: scheduler.Config{
			Algorithm: scheduler.RC, NumChannels: churnChannels, RhoT: soak.RhoT, HopGR: w.hop,
		},
		sched: sched,
	}, nil
}

// churnStream generates the delta stream against the live grid.
type churnStream struct {
	w        *churnWorld
	live     *churnGrid
	rng      *rand.Rand
	inactive []*flow.Flow
	log      []churnOp
	st       churnStats
	admitted int
}

// newChurnStream builds the live grid and admits the first churnFlows pool
// flows through the delta path (the warm-up).
func newChurnStream(w *churnWorld, seed int64) (*churnStream, error) {
	live, err := w.newGrid()
	if err != nil {
		return nil, err
	}
	d := &churnStream{w: w, live: live, rng: rand.New(rand.NewSource(mix(seed, -1)))}
	for i, f := range w.pool {
		cp := cloneFlow(f)
		if i >= churnFlows {
			d.inactive = append(d.inactive, cp)
			continue
		}
		op := churnOp{kind: churnAdd, f: cp, id: cp.ID}
		var st churnStats
		ok, _, err := d.live.apply(newRecorder(false, 0, time.Now()), &op, &st)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if !ok {
			d.inactive = append(d.inactive, cp)
			continue
		}
		d.admitted++
		d.log = append(d.log, churnOp{kind: churnAdd, f: cloneFlow(cp), id: cp.ID})
	}
	return d, nil
}

// next draws op number i; ok is false when the draw has no legal move.
func (d *churnStream) next(i int64) (op churnOp, ok bool) {
	if (i+1)%churnBatchEvery == 0 {
		return d.nextBatch()
	}
	act := d.live.active
	// The mix balances itself around the active-flow target.
	addCut := 40
	if len(act) >= churnFlows {
		addCut = 15
	}
	r := d.rng.Intn(100)
	switch {
	case r < addCut && len(d.inactive) > 0:
		f := d.inactive[d.rng.Intn(len(d.inactive))]
		return churnOp{kind: churnAdd, f: f, id: f.ID}, true
	case r < 55 && len(act) > 1:
		return churnOp{kind: churnRemove, id: act[d.rng.Intn(len(act))].ID}, true
	case r < 85 && len(act) > 0:
		f := act[d.rng.Intn(len(act))]
		if len(f.Route) < 2 {
			return op, false
		}
		avoid := f.Route[d.rng.Intn(len(f.Route)-1)].To
		detour := pathAvoiding(d.w.gc, f.Src, f.Dst, avoid)
		if detour == nil || sameRoute(detour, f.Route) {
			return op, false
		}
		return churnOp{kind: churnReroute, id: f.ID, route: detour}, true
	case len(act) > 0:
		f := act[d.rng.Intn(len(act))]
		var budget []int
		if len(f.TxBudget) == 0 {
			budget = make([]int, len(f.Route))
			for h := range budget {
				budget[h] = 1 + d.rng.Intn(2)
			}
		}
		return churnOp{kind: churnRebudget, id: f.ID, budget: budget}, true
	}
	return op, false
}

// nextBatch is a node fault: every active flow crossing a random relay
// (up to churnBatchSize) detours around it in one atomic batch.
func (d *churnStream) nextBatch() (churnOp, bool) {
	node := d.rng.Intn(d.w.gc.Len())
	var ops []scheduler.BatchOp
	for _, f := range d.live.active {
		if len(ops) >= churnBatchSize {
			break
		}
		if f.Src == node || f.Dst == node || !crossesNode(f.Route, node) {
			continue
		}
		if detour := pathAvoiding(d.w.gc, f.Src, f.Dst, node); detour != nil {
			ops = append(ops, scheduler.BatchOp{Kind: scheduler.BatchReroute, FlowID: f.ID, Route: detour})
		}
	}
	return churnOp{kind: churnBatch, batch: ops}, len(ops) > 0
}

// step draws and applies op i. lat is negative when no delta ran.
func (d *churnStream) step(rec *recorder, i int64) (time.Duration, error) {
	op, ok := d.next(i)
	if !ok {
		return -1, nil
	}
	committed, lat, err := d.live.apply(rec, &op, &d.st)
	if err != nil {
		return lat, err
	}
	if !committed {
		return lat, nil
	}
	switch op.kind {
	case churnAdd:
		for j, f := range d.inactive {
			if f.ID == op.id {
				d.inactive = append(d.inactive[:j], d.inactive[j+1:]...)
				break
			}
		}
		op.f = cloneFlow(op.f)
	case churnRemove:
		// The flow goes back to the pool as it last ran.
		d.inactive = append(d.inactive, op.f)
		op.f = nil
	case churnRebudget:
		op.budget = append([]int(nil), op.budget...)
	case churnBatch:
		op.batch = cloneBatch(op.batch)
	}
	d.log = append(d.log, op)
	return lat, nil
}

// replay applies the logged ops to a fresh grid and returns its digest.
func (d *churnStream) replay() (string, error) {
	g, err := d.w.newGrid()
	if err != nil {
		return "", err
	}
	var st churnStats
	rec := newRecorder(false, 0, time.Now())
	for k, op := range d.log {
		cp := op
		switch op.kind {
		case churnAdd:
			cp.f = cloneFlow(op.f)
		case churnBatch:
			cp.batch = cloneBatch(op.batch)
		}
		ok, _, err := g.apply(rec, &cp, &st)
		if err != nil {
			return "", fmt.Errorf("replaying op %d: %w", k, err)
		}
		if !ok {
			return "", fmt.Errorf("replaying op %d: the replay found a committed delta infeasible", k)
		}
	}
	return soak.Digest(g.sched), nil
}

func runChurn(ctx context.Context, e env) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	d, setupS, err := repeatSetup(func() (*churnStream, error) {
		w, err := newChurnWorld()
		if err != nil {
			return nil, err
		}
		return newChurnStream(w, e.seed)
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("churn set-up: %w", err)
	}
	out.e2e["setup_s"] = setupS
	fmt.Fprintf(stderrW, "perfbench: churn warm-up admitted %d of %d flows\n", d.admitted, churnFlows)

	var atK churnStats
	var digestAtK string
	ops := int64(0)
	var unitAt []time.Duration
	var unitN []float64
	var start time.Time
	op := func(rec *recorder, i int64) (time.Duration, error) {
		if i == 0 {
			start = time.Now()
		}
		before := d.st.units
		root := rec.beginOp("op", i)
		lat, err := d.step(rec, i)
		rec.end(root)
		if n := d.st.units - before; n > 0 {
			unitAt = append(unitAt, time.Since(start))
			unitN = append(unitN, float64(n))
		}
		ops = i + 1
		if i == churnOutcomeOps-1 {
			atK, digestAtK = d.st, soak.Digest(d.live.sched)
		}
		return lat, err
	}
	win := closedLoop(e, 1, minSamplesForTail(0.99), op)
	out.attempted, out.failed = win.complete, win.failed
	for _, s := range win.errs {
		out.problem("%s", s)
	}
	unitsInWindow := d.st.units
	m := summarize(win, float64(unitsInWindow))
	requireTail(out, m.n)
	m.opsPerS = slicedRate(unitAt, unitN, win.elapsed, time.Second)

	// Output checks, outside the measured window: finish the outcome
	// prefix, validate the live grid, and replay the op log on a fresh one.
	rec := newRecorder(false, 0, time.Now())
	for i := ops; i < churnOutcomeOps; i++ {
		out.attempted++
		if _, err := op(rec, i); err != nil {
			out.problem("op %d: %v", i, err)
		}
	}
	if err := d.live.sched.Validate(d.w.hop, soak.RhoT); err != nil {
		out.problem("live schedule invalid: %v", err)
	}
	t0 := time.Now()
	replayed, err := d.replay()
	if err != nil {
		out.problem("%v", err)
	} else if live := soak.Digest(d.live.sched); replayed != live {
		out.problem("schedule drift: live digest %s, replay of %d logged ops %s", live, len(d.log), replayed)
	}
	fmt.Fprintf(stderrW, "perfbench: churn replayed %d ops in %v\n", len(d.log), time.Since(t0).Round(time.Millisecond))
	checkDigest(e, out, digestOf([]string{digestAtK, fmt.Sprintf("%+v", atK)}))

	out.e2e["ops_per_s"] = m.opsPerS
	out.e2e["latency_p50_ms"] = m.p50ms
	out.layer["bench.latency_p99_ms"] = m.p99ms
	out.e2e["cpu_ms_per_op"] = m.cpuMsPerOp
	out.e2e["max_rss_mb"] = maxRSSMB()
	out.e2e["outcome_ratio"] = ratio(float64(atK.committed), float64(atK.deltas))
	fmt.Fprintf(stderrW, "perfbench: churn %d ops, %d committed deltas in %v\n", win.complete, unitsInWindow, win.elapsed.Round(time.Millisecond))

	if e.trace {
		spans := win.spans()
		out.spans = spans
		lt := layerReport(out, spans, "op")
		out.layer["topology.generate.ms"] = d.w.surveyMs
		out.layer["topology.generate.alloc_mb"] = d.w.alloc
		out.layer["graph.derive.ms"] = d.w.deriveMs
		calls := spanDurations(spans)
		var deltaShare float64
		for _, k := range []string{"add", "remove", "reroute", "batch"} {
			name := "scheduler.delta." + k
			us := sortedCopy(durs(calls[name], time.Microsecond))
			out.layer[name+".p50_us"] = quantile(us, 0.5)
			out.layer[name+".p99_us"] = quantile(us, 0.99)
			deltaShare += lt.share(name)
		}
		st := d.st
		out.layer["scheduler.delta.share"] = deltaShare
		out.layer["scheduler.delta.placement_ops_per_delta"] = ratio(float64(st.placementOps), float64(st.deltas))
		out.layer["scheduler.delta.removal_ops_per_delta"] = ratio(float64(st.removalOps), float64(st.deltas))
		out.layer["scheduler.delta.fallback_evict_ratio"] = ratio(float64(st.fbEvict), float64(st.committed))
		out.layer["scheduler.delta.fallback_cascade_ratio"] = ratio(float64(st.fbCascade), float64(st.committed))
		out.layer["scheduler.delta.fallback_full_ratio"] = ratio(float64(st.fbFull), float64(st.committed))
		out.layer["scheduler.delta.infeasible_ratio"] = ratio(float64(st.infeasible), float64(st.deltas))
		out.layer["runtime.gc_cpu_share"] = win.gcShare
		out.layer["trace.overhead_pct"] = win.overheadPct()
	}
	return out, nil
}

// pathAvoiding returns the shortest src→dst hop route in g with node avoid
// deleted, or nil when none exists.
func pathAvoiding(g *graph.Graph, src, dst, avoid int) []flow.Link {
	sub := graph.New(g.Len())
	for u := 0; u < g.Len(); u++ {
		if u == avoid {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if int(v) != avoid {
				// Edges of a valid graph re-add cleanly.
				_ = sub.AddEdge(u, int(v))
			}
		}
	}
	path := sub.ShortestPathHop(src, dst)
	if path == nil {
		return nil
	}
	route := make([]flow.Link, len(path)-1)
	for i := range route {
		route[i] = flow.Link{From: path[i], To: path[i+1]}
	}
	return route
}

func sameRoute(a, b []flow.Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func crossesNode(route []flow.Link, node int) bool {
	for _, l := range route {
		if l.From == node || l.To == node {
			return true
		}
	}
	return false
}

func cloneFlow(f *flow.Flow) *flow.Flow {
	cp := *f
	cp.Route = append([]flow.Link(nil), f.Route...)
	cp.TxBudget = append([]int(nil), f.TxBudget...)
	return &cp
}

func cloneBatch(ops []scheduler.BatchOp) []scheduler.BatchOp {
	out := make([]scheduler.BatchOp, len(ops))
	for i, op := range ops {
		out[i] = op
		out[i].Route = append([]flow.Link(nil), op.Route...)
		if op.Flow != nil {
			out[i].Flow = cloneFlow(op.Flow)
		}
	}
	return out
}
