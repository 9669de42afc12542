// Delta scheduling for flow churn. AddFlowDelta, RemoveFlowDelta, and
// RerouteFlowDelta mutate a live schedule in place, pinning every unaffected
// flow's transmissions and placing only the delta against the existing grid.
// Placement runs through the same engine as a full run, so it is served by
// the index layer (busy-bitset word scans, occupancy rows, prefix-popcount
// conflict counters) and costs O(affected cells), not O(network).
//
// When direct placement is infeasible the operation descends a repair
// ladder:
//
//  1. direct — place the delta against the pinned grid (FallbackNone);
//  2. scoped eviction — evict lower-criticality flows colliding with the
//     delta's instance windows one at a time, retry, then re-place the
//     evicted flows against the updated grid (FallbackEvict);
//  3. cascade — like rung 2, but a re-placement failure evicts further
//     strictly-lower-criticality colliders instead of aborting, bounded by
//     a total eviction budget so the tail stays amortized (FallbackCascade);
//  4. full reschedule — rebuild the whole mutated workload from scratch
//     into a fresh grid of the same dimensions and apply the net difference
//     (FallbackFull).
//
// The last rung is the from-scratch scheduler itself, so whenever a full
// reschedule of the mutated workload is feasible the delta operation
// succeeds too — feasibility parity holds by construction. Every mutation
// is journaled; on total infeasibility the journal is replayed in reverse
// and the schedule is left exactly as it was. The returned Changes is the
// net schedule.Diff actually applied; schedule.Invert(Changes) rolls it
// back.

package scheduler

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"wsan/internal/flow"
	"wsan/internal/obs"
	"wsan/internal/schedule"
)

// Fallback identifies how far down the repair ladder a delta operation had
// to descend.
type Fallback int

const (
	// FallbackNone: direct pinned placement succeeded.
	FallbackNone Fallback = iota
	// FallbackEvict: lower-criticality colliding flows were evicted and
	// re-placed around the delta.
	FallbackEvict
	// FallbackCascade: the bounded cascade rung — evictions were allowed to
	// trigger further evictions while re-placing, up to cascadeBudget
	// removals, before resorting to a full reschedule.
	FallbackCascade
	// FallbackFull: the whole mutated workload was rescheduled from
	// scratch.
	FallbackFull
)

// String implements fmt.Stringer.
func (f Fallback) String() string {
	switch f {
	case FallbackNone:
		return "none"
	case FallbackEvict:
		return "evict"
	case FallbackCascade:
		return "cascade"
	case FallbackFull:
		return "full"
	default:
		return fmt.Sprintf("Fallback(%d)", int(f))
	}
}

// DeltaResult reports one incremental rescheduling operation.
type DeltaResult struct {
	// Changes is the net delta applied to the schedule, in canonical
	// dissemination order (see schedule.Diff). Apply schedule.Invert of it
	// to roll the operation back. Nil when the operation failed.
	Changes []schedule.Change
	// Schedulable reports whether the operation succeeded. When false the
	// schedule was restored to its pre-operation state.
	Schedulable bool
	// FailedFlow is the flow that could not be placed, or -1.
	FailedFlow int
	// Fallback is the deepest repair-ladder rung the operation used.
	Fallback Fallback
	// Evicted lists, in priority order, the lower-criticality flows that
	// were evicted and re-placed (FallbackEvict only).
	Evicted []int
	// PlacementOps counts successful transmission placements performed,
	// including evicted-flow re-placements and full-reschedule replays.
	// This is the operation's disruption/work metric: single-flow churn
	// should stay near the flow's own transmission count, while a full
	// reschedule pays one placement per transmission in the network.
	PlacementOps int
	// RemovalOps counts transmission removals performed.
	RemovalOps int
	// Elapsed is the wall-clock operation time.
	Elapsed time.Duration
}

// deltaJournalEntry records one schedule mutation so the operation can be
// rolled back (reverse replay) and its net diff computed.
type deltaJournalEntry struct {
	place bool
	tx    schedule.Tx
}

// deltaOp carries one operation's state: the live schedule, a placement
// engine bound to it, and the mutation journal.
type deltaOp struct {
	sched *schedule.Schedule
	cfg   Config
	eng   engine
	ops   []deltaJournalEntry

	placeOps  int
	removeOps int
}

func newDeltaOp(sched *schedule.Schedule, cfg Config) *deltaOp {
	lambdaR := 0
	if cfg.Algorithm == RC {
		lambdaR = cfg.HopGR.Diameter()
	}
	return &deltaOp{sched: sched, cfg: cfg, eng: newEngine(cfg, sched, lambdaR)}
}

// placeFlow places every instance of f against the current grid (everything
// already placed is pinned — the engine never moves an existing
// transmission), journaling the placements. On a deadline miss or an engine
// fault the partial placements are undone and false is returned; place
// reports a fault as the operation's error.
func (d *deltaOp) placeFlow(f *flow.Flow) bool {
	if d.eng.err != nil {
		return false
	}
	base := d.sched.Len()
	hyper := d.sched.NumSlots()
	for inst := 0; inst < hyper/f.Period; inst++ {
		if !d.eng.scheduleInstance(f, inst) {
			txs := append([]schedule.Tx(nil), d.sched.Txs()[base:]...)
			for i := len(txs) - 1; i >= 0; i-- {
				// Removing a just-placed transmission cannot fail.
				_ = d.sched.Remove(txs[i])
			}
			return false
		}
	}
	for _, tx := range d.sched.Txs()[base:] {
		d.ops = append(d.ops, deltaJournalEntry{place: true, tx: tx})
		d.placeOps++
	}
	return true
}

// removeFlow removes every scheduled transmission of flowID, journaled.
// Returns how many transmissions were removed.
func (d *deltaOp) removeFlow(flowID int) int {
	var txs []schedule.Tx
	for _, tx := range d.sched.Txs() {
		if tx.FlowID == flowID {
			txs = append(txs, tx)
		}
	}
	for _, tx := range txs {
		// The transmission was just read from the schedule; Remove cannot
		// fail.
		_ = d.sched.Remove(tx)
		d.ops = append(d.ops, deltaJournalEntry{tx: tx})
		d.removeOps++
	}
	return len(txs)
}

// rollback replays the journal in reverse, restoring the schedule to its
// pre-operation state.
func (d *deltaOp) rollback() { d.rollbackTo(0) }

// rollbackTo replays the journal suffix past mark in reverse, restoring the
// schedule to its state when the journal held mark entries — the rollback
// point of one operation inside a batch.
func (d *deltaOp) rollbackTo(mark int) {
	for i := len(d.ops) - 1; i >= mark; i-- {
		e := d.ops[i]
		if e.place {
			_ = d.sched.Remove(e.tx)
		} else {
			_ = d.sched.Place(e.tx)
		}
	}
	d.ops = d.ops[:mark]
}

// changes nets the journal into a canonical delta: a transmission removed
// and later re-placed in the same cell cancels out, so the diff is exactly
// what the manager must disseminate.
func (d *deltaOp) changes() []schedule.Change {
	net := make(map[schedule.Tx]int, len(d.ops))
	for _, e := range d.ops {
		if e.place {
			net[e.tx]++
		} else {
			net[e.tx]--
		}
	}
	out := make([]schedule.Change, 0, len(net))
	for tx, n := range net {
		switch {
		case n > 0:
			out = append(out, schedule.Change{Kind: schedule.Added, Tx: tx})
		case n < 0:
			out = append(out, schedule.Change{Kind: schedule.Removed, Tx: tx})
		}
	}
	schedule.SortChanges(out)
	return out
}

// finish fills the result's bookkeeping fields from the journal state.
func (d *deltaOp) finish(res *DeltaResult) *DeltaResult {
	res.Schedulable = true
	res.Changes = d.changes()
	res.PlacementOps = d.placeOps
	res.RemovalOps = d.removeOps
	return res
}

// validateDeltaConfig checks the parts of cfg a delta operation relies on
// against the live schedule.
func validateDeltaConfig(sched *schedule.Schedule, cfg Config) error {
	if sched == nil {
		return fmt.Errorf("scheduler: nil schedule")
	}
	if cfg.NumChannels != sched.NumOffsets() {
		return fmt.Errorf("scheduler: config has %d channels but schedule has %d offsets",
			cfg.NumChannels, sched.NumOffsets())
	}
	switch cfg.Algorithm {
	case NR:
	case RA, RC:
		if cfg.HopGR == nil {
			return fmt.Errorf("scheduler: %v requires the G_R hop matrix", cfg.Algorithm)
		}
		if cfg.RhoT < 1 {
			return fmt.Errorf("scheduler: %v requires RhoT ≥ 1, have %d", cfg.Algorithm, cfg.RhoT)
		}
	default:
		return fmt.Errorf("scheduler: unknown algorithm %v", cfg.Algorithm)
	}
	return nil
}

// validateDeltaFlow checks that f can live inside sched's grid: valid on its
// own, routed, harmonic with the slotframe, and within the node space.
func validateDeltaFlow(sched *schedule.Schedule, f *flow.Flow) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("scheduler: %w", err)
	}
	if len(f.Route) == 0 {
		return fmt.Errorf("scheduler: flow %d has no route", f.ID)
	}
	if f.Period <= 0 || sched.NumSlots()%f.Period != 0 {
		return fmt.Errorf("scheduler: flow period %d does not divide the slotframe %d",
			f.Period, sched.NumSlots())
	}
	for _, l := range f.Route {
		if l.From >= sched.NumNodes() || l.To >= sched.NumNodes() {
			return fmt.Errorf("scheduler: flow %d route node outside schedule's node space", f.ID)
		}
	}
	return nil
}

// AddFlowDelta admits flow f into a live schedule holding flows, descending
// the repair ladder on infeasibility. Unlike AddFlow it accepts any priority
// (ID) — an admission that preempts lower-criticality flows is resolved by
// eviction or full reschedule rather than rejected. flows must be the
// currently scheduled workload in priority order; it is not mutated.
func AddFlowDelta(sched *schedule.Schedule, flows []*flow.Flow, f *flow.Flow, cfg Config) (*DeltaResult, error) {
	start := time.Now()
	if err := validateDeltaConfig(sched, cfg); err != nil {
		return nil, err
	}
	if err := validateDeltaFlow(sched, f); err != nil {
		return nil, err
	}
	for _, g := range flows {
		if g.ID == f.ID {
			return nil, fmt.Errorf("scheduler: flow %d already in the workload", f.ID)
		}
	}
	for _, tx := range sched.Txs() {
		if tx.FlowID == f.ID {
			return nil, fmt.Errorf("scheduler: flow %d already scheduled", f.ID)
		}
	}
	d := newDeltaOp(sched, cfg)
	res, err := d.place(f, flows, 0)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	flushDeltaMetrics(cfg.Metrics, "add", res)
	return res, nil
}

// RemoveFlowDelta retires a flow from a live schedule, removing its
// transmissions. Removal frees capacity, so it always succeeds; the result's
// Changes is the pure-removal delta to disseminate. mets may be nil.
func RemoveFlowDelta(sched *schedule.Schedule, flowID int, mets obs.Sink) (*DeltaResult, error) {
	start := time.Now()
	if sched == nil {
		return nil, fmt.Errorf("scheduler: nil schedule")
	}
	d := &deltaOp{sched: sched}
	if d.removeFlow(flowID) == 0 {
		return nil, fmt.Errorf("scheduler: flow %d has no scheduled transmissions", flowID)
	}
	res := d.finish(&DeltaResult{FailedFlow: -1})
	res.Elapsed = time.Since(start)
	flushDeltaMetrics(mets, "remove", res)
	return res, nil
}

// RerouteFlowDelta moves flow flowID onto newRoute, re-placing only that
// flow's transmissions and descending the repair ladder on infeasibility.
// The flow's TxBudget rides along, refitted to the new route by
// flow.AdaptBudget, so a re-budgeted (or shed) flow keeps its concession
// through a detour of any length. flows must be the currently scheduled
// workload in priority order and contain the flow; neither it nor the flow
// is mutated — on success the caller updates the flow's Route (and TxBudget,
// via flow.AdaptBudget, when one is installed).
func RerouteFlowDelta(sched *schedule.Schedule, flows []*flow.Flow, flowID int, newRoute []flow.Link, cfg Config) (*DeltaResult, error) {
	start := time.Now()
	if err := validateDeltaConfig(sched, cfg); err != nil {
		return nil, err
	}
	var orig *flow.Flow
	for _, g := range flows {
		if g.ID == flowID {
			orig = g
			break
		}
	}
	if orig == nil {
		return nil, fmt.Errorf("scheduler: flow %d not in the workload", flowID)
	}
	moved := *orig
	moved.Route = append([]flow.Link(nil), newRoute...)
	moved.TxBudget = flow.AdaptBudget(orig.TxBudget, len(newRoute))
	if err := validateDeltaFlow(sched, &moved); err != nil {
		return nil, err
	}
	others := make([]*flow.Flow, 0, len(flows)-1)
	for _, g := range flows {
		if g.ID != flowID {
			others = append(others, g)
		}
	}
	d := newDeltaOp(sched, cfg)
	d.removeFlow(flowID)
	res, err := d.place(&moved, others, 0)
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	flushDeltaMetrics(cfg.Metrics, "reroute", res)
	return res, nil
}

// place runs the repair ladder for flow f against a grid holding others
// (plus any journaled mutations already performed, e.g. a reroute's
// removal). mark is the journal length at the operation's start: rung 3
// rolls back to it before rescheduling from scratch, so inside a batch only
// this operation's mutations are undone. On total infeasibility, and on an
// engine fault at any rung, the journal is rolled back to mark and the
// schedule is left as it was at mark.
func (d *deltaOp) place(f *flow.Flow, others []*flow.Flow, mark int) (*DeltaResult, error) {
	res, err := d.ladder(f, others, mark)
	if err == nil {
		err = d.eng.err
	}
	if err != nil {
		d.rollbackTo(mark)
		return nil, err
	}
	return res, nil
}

// ladder descends the repair rungs for place.
func (d *deltaOp) ladder(f *flow.Flow, others []*flow.Flow, mark int) (*DeltaResult, error) {
	res := &DeltaResult{FailedFlow: -1}
	if d.placeFlow(f) {
		return d.finish(res), nil
	}
	if evicted, ok := d.evictAndPlace(f, others); ok {
		res.Fallback = FallbackEvict
		res.Evicted = evicted
		return d.finish(res), nil
	}
	// Budgeted cascade rung: restart from the operation's mark and let
	// re-placement failures evict further colliders within the budget.
	d.rollbackTo(mark)
	if evicted, ok := d.evictCascade(f, others); ok {
		res.Fallback = FallbackCascade
		res.Evicted = evicted
		return d.finish(res), nil
	}
	// Last rung: reschedule the whole mutated workload from scratch.
	d.rollbackTo(mark)
	res.Fallback = FallbackFull
	return d.fullReschedule(mutatedWorkload(others, f), res)
}

// evictCand is one eviction candidate: a lower-criticality flow with
// transmissions inside the new flow's instance windows, scored by how hard
// those transmissions block the placement (route-touching transmissions
// weigh most).
type evictCand struct {
	id    int
	score int
}

// evictionCandidates ranks the evictable flows: strictly lower criticality
// (higher ID) than f, present in the known workload, with at least one
// transmission inside one of f's release/deadline windows. Higher score —
// more blocking transmissions — first; ties go to the lowest-criticality
// flow.
func (d *deltaOp) evictionCandidates(f *flow.Flow, byID map[int]*flow.Flow) []evictCand {
	onRoute := make(map[int]bool, len(f.Route)+1)
	for _, l := range f.Route {
		onRoute[l.From] = true
		onRoute[l.To] = true
	}
	score := make(map[int]int)
	for _, tx := range d.sched.Txs() {
		if tx.FlowID <= f.ID {
			continue // equal or higher criticality: never evicted
		}
		if _, known := byID[tx.FlowID]; !known {
			continue // cannot re-place a flow we do not know
		}
		rel := tx.Slot - f.Phase
		if rel < 0 || rel%f.Period >= f.Deadline {
			continue // outside every instance window of f
		}
		s := 1
		if onRoute[tx.Link.From] || onRoute[tx.Link.To] {
			s += 8
		}
		score[tx.FlowID] += s
	}
	cands := make([]evictCand, 0, len(score))
	for id, s := range score {
		cands = append(cands, evictCand{id: id, score: s})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].id > cands[j].id
	})
	return cands
}

// evictAndPlace is the scoped-repair rung: evict colliding
// lower-criticality flows one at a time, retrying f's placement after each,
// then re-place every evicted flow in priority order against the updated
// grid. The set grows greedily from the most-blocking candidate, so the
// eviction set stays near-minimal. Returns the evicted flow IDs in priority
// order; ok=false leaves the journal un-rolled-back for the caller.
func (d *deltaOp) evictAndPlace(f *flow.Flow, others []*flow.Flow) (evicted []int, ok bool) {
	byID := make(map[int]*flow.Flow, len(others))
	for _, g := range others {
		byID[g.ID] = g
	}
	cands := d.evictionCandidates(f, byID)
	if len(cands) == 0 {
		return nil, false
	}
	var out []*flow.Flow
	placed := false
	for _, c := range cands {
		g := byID[c.id]
		d.removeFlow(g.ID)
		out = append(out, g)
		if d.placeFlow(f) {
			placed = true
			break
		}
	}
	if !placed {
		return nil, false
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	ids := make([]int, 0, len(out))
	for _, g := range out {
		if !d.placeFlow(g) {
			return nil, false
		}
		ids = append(ids, g.ID)
	}
	return ids, true
}

// cascadeBudget bounds the total number of evictions one cascade descent may
// perform. The bound is what keeps the rung cheaper than a full reschedule:
// each eviction costs one removal plus one bounded re-placement attempt, so
// the rung's work stays O(budget · flow), independent of network size.
const cascadeBudget = 16

// evictCascade is the budgeted middle rung between scoped eviction and full
// reschedule. It generalizes evictAndPlace: pending flows are re-placed
// highest-criticality (lowest ID) first, and when a re-placement fails its
// own strictly-lower-criticality colliders are evicted in turn — rung 2
// aborts there — until everything is placed or the eviction budget is spent.
// Every evicted flow has a strictly higher ID than the flow it was evicted
// for, so transitively no eviction ever outranks the delta flow itself.
// Termination: each loop iteration either places a pending flow or consumes
// budget; ok=false leaves the journal for the caller to roll back.
func (d *deltaOp) evictCascade(f *flow.Flow, others []*flow.Flow) (evicted []int, ok bool) {
	byID := make(map[int]*flow.Flow, len(others))
	for _, g := range others {
		byID[g.ID] = g
	}
	pending := []*flow.Flow{f}
	budget := cascadeBudget
	evictedSet := make(map[int]bool)
	for len(pending) > 0 {
		// Pop the highest-criticality pending flow.
		best := 0
		for i, g := range pending {
			if g.ID < pending[best].ID {
				best = i
			}
		}
		g := pending[best]
		pending = append(pending[:best], pending[best+1:]...)
		if d.placeFlow(g) {
			continue
		}
		placed := false
		for _, c := range d.evictionCandidates(g, byID) {
			if budget <= 0 {
				break
			}
			h := byID[c.id]
			d.removeFlow(h.ID)
			budget--
			evictedSet[h.ID] = true
			pending = append(pending, h)
			if d.placeFlow(g) {
				placed = true
				break
			}
		}
		if !placed {
			return nil, false
		}
	}
	ids := make([]int, 0, len(evictedSet))
	for id := range evictedSet {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, true
}

// mutatedWorkload is the post-operation flow set in priority order: others
// plus f.
func mutatedWorkload(others []*flow.Flow, f *flow.Flow) []*flow.Flow {
	out := make([]*flow.Flow, 0, len(others)+1)
	out = append(out, others...)
	out = append(out, f)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// scratchPool recycles full-reschedule scratch grids across delta
// operations. Rung 3 used to allocate a fresh grid per descent — the delta
// path's single largest allocation under sustained churn; recycling one
// scratch per P (GOMAXPROCS) keeps steady-state soak runs allocation-flat.
var scratchPool sync.Pool

// fullReschedule is the ladder's last rung: run the configured algorithm
// over the whole mutated workload into a scratch grid of the same dimensions
// (the existing slotframe is kept — every period divides it, so instance
// windows repeat exactly), then apply the net difference to the live
// schedule. Because this rung is the from-scratch scheduler itself,
// feasibility parity with a full reschedule holds by construction. The
// caller must have rolled the journal back to this operation's starting
// point first; the applied net is journaled so a batched operation can keep
// building on top of a rung-3 repair and still roll the whole batch back.
func (d *deltaOp) fullReschedule(mutated []*flow.Flow, res *DeltaResult) (*DeltaResult, error) {
	fresh, _ := scratchPool.Get().(*schedule.Schedule)
	var err error
	if fresh != nil {
		err = fresh.Reset(d.sched.NumSlots(), d.sched.NumOffsets(), d.sched.NumNodes())
	} else {
		fresh, err = schedule.New(d.sched.NumSlots(), d.sched.NumOffsets(), d.sched.NumNodes())
	}
	if err != nil {
		return nil, fmt.Errorf("scheduler: full reschedule: %w", err)
	}
	defer scratchPool.Put(fresh)
	hyper := d.sched.NumSlots()
	total := 0
	for _, g := range mutated {
		total += (hyper / g.Period) * g.TotalAttempts(d.cfg.attempts())
	}
	fresh.Reserve(total)
	eng := newEngine(d.cfg, fresh, d.eng.lambdaR)
	for _, g := range mutated {
		for inst := 0; inst < hyper/g.Period; inst++ {
			if !eng.scheduleInstance(g, inst) {
				if eng.err != nil {
					return nil, fmt.Errorf("scheduler: full reschedule: %w", eng.err)
				}
				res.Schedulable = false
				res.FailedFlow = g.ID
				return res, nil
			}
		}
	}
	changes, err := schedule.Diff(d.sched, fresh)
	if err != nil {
		return nil, fmt.Errorf("scheduler: full reschedule: %w", err)
	}
	if err := schedule.Apply(d.sched, changes); err != nil {
		return nil, fmt.Errorf("scheduler: full reschedule: %w", err)
	}
	// Journal in Apply's execution order (removals before additions) so a
	// reverse replay undoes the rung cleanly.
	for _, c := range changes {
		if c.Kind == schedule.Removed {
			d.ops = append(d.ops, deltaJournalEntry{tx: c.Tx})
			d.removeOps++
		}
	}
	for _, c := range changes {
		if c.Kind == schedule.Added {
			d.ops = append(d.ops, deltaJournalEntry{place: true, tx: c.Tx})
			d.placeOps++
		}
	}
	res.Schedulable = true
	res.FailedFlow = -1
	res.Changes = changes
	res.PlacementOps = fresh.Len()
	res.RemovalOps = 0
	for _, c := range changes {
		switch c.Kind {
		case schedule.Added:
			res.PlacementOps++
		case schedule.Removed:
			res.RemovalOps++
		}
	}
	return res, nil
}

// flushDeltaMetrics pushes one operation's counters under the
// "sched.incremental." prefix. No-op without a sink.
func flushDeltaMetrics(m obs.Sink, op string, res *DeltaResult) {
	if m == nil {
		return
	}
	const p = "sched.incremental."
	m.Count(p+"ops", 1)
	m.Count(p+op+"_ops", 1)
	m.Count(p+"placements", int64(res.PlacementOps))
	m.Count(p+"removals", int64(res.RemovalOps))
	m.Count(p+"evictions", int64(len(res.Evicted)))
	m.Count(p+"delta_changes", int64(len(res.Changes)))
	switch res.Fallback {
	case FallbackEvict:
		m.Count(p+"fallback_evict", 1)
	case FallbackFull:
		m.Count(p+"fallback_full", 1)
	}
	if !res.Schedulable {
		m.Count(p+"infeasible", 1)
	}
	m.Observe(p+"elapsed_seconds", res.Elapsed.Seconds())
}
