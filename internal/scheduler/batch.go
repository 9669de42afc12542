// Batched delta application: N flow mutations per journal commit with one
// rollback point. A sustained-churn manager rarely sees deltas one at a
// time — a link fault reroutes every flow crossing it, an admission burst
// adds a batch of control loops — and applying them as one operation
// amortizes the per-op engine setup, disseminates one net diff, and keeps
// the all-or-nothing guarantee: if any mutation is infeasible even at the
// bottom of the repair ladder, the whole batch rolls back.

package scheduler

import (
	"fmt"
	"sort"
	"time"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// BatchKind selects one batched mutation.
type BatchKind int

const (
	// BatchAdd admits a new flow.
	BatchAdd BatchKind = iota
	// BatchRemove retires a flow.
	BatchRemove
	// BatchReroute moves a flow onto a new route and re-places it under
	// its current TxBudget, refitted by flow.AdaptBudget when the hop
	// count changes — so a re-budget is a same-route BatchReroute after
	// updating the flow's budget.
	BatchReroute
)

// String implements fmt.Stringer.
func (k BatchKind) String() string {
	switch k {
	case BatchAdd:
		return "add"
	case BatchRemove:
		return "remove"
	case BatchReroute:
		return "reroute"
	default:
		return fmt.Sprintf("BatchKind(%d)", int(k))
	}
}

// BatchOp is one mutation of a batch.
type BatchOp struct {
	Kind BatchKind
	// Flow is the flow to admit (BatchAdd only).
	Flow *flow.Flow
	// FlowID identifies the target flow (BatchRemove and BatchReroute).
	FlowID int
	// Route is the new route (BatchReroute only).
	Route []flow.Link
}

// BatchResult reports one atomic batch.
type BatchResult struct {
	DeltaResult
	// Flows is the post-batch workload in priority order. On failure it is
	// the unchanged input workload.
	Flows []*flow.Flow
	// Fallbacks is the deepest repair-ladder rung each op used, in op order
	// (meaningful only when the batch succeeded through that op).
	Fallbacks []Fallback
}

// ApplyDeltaBatch applies ops to a live schedule as one atomic operation:
// a single journal with a single rollback point. Each op still descends the
// per-op repair ladder (direct → evict → full reschedule), but a rung-3
// repair rolls back only that op's mutations and rebuilds on top of the
// batch's earlier ops. If any op fails terminally the entire batch is rolled
// back and Schedulable is false. flows is the current workload in priority
// order; it is not mutated — the updated workload is returned in
// BatchResult.Flows (reroutes replace the flow with a copy carrying the new
// route, mirroring RerouteFlowDelta's caller-updates contract).
func ApplyDeltaBatch(sched *schedule.Schedule, flows []*flow.Flow, ops []BatchOp, cfg Config) (*BatchResult, error) {
	start := time.Now()
	if err := validateDeltaConfig(sched, cfg); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("scheduler: empty delta batch")
	}
	work := append([]*flow.Flow(nil), flows...)
	find := func(id int) int {
		for i, g := range work {
			if g.ID == id {
				return i
			}
		}
		return -1
	}
	d := newDeltaOp(sched, cfg)
	out := &BatchResult{DeltaResult: DeltaResult{FailedFlow: -1}}
	fail := func(flowID int) (*BatchResult, error) {
		d.rollback()
		out.Schedulable = false
		out.FailedFlow = flowID
		out.Flows = flows
		out.Elapsed = time.Since(start)
		flushDeltaMetrics(cfg.Metrics, "batch", &out.DeltaResult)
		return out, nil
	}
	for i, op := range ops {
		mark := len(d.ops)
		switch op.Kind {
		case BatchAdd:
			f := op.Flow
			if f == nil {
				return nil, fmt.Errorf("scheduler: batch op %d: add without a flow", i)
			}
			if err := validateDeltaFlow(sched, f); err != nil {
				return nil, fmt.Errorf("scheduler: batch op %d: %w", i, err)
			}
			if find(f.ID) >= 0 {
				return nil, fmt.Errorf("scheduler: batch op %d: flow %d already in the workload", i, f.ID)
			}
			res, err := d.place(f, work, mark)
			if err != nil {
				d.rollback()
				return nil, fmt.Errorf("scheduler: batch op %d: %w", i, err)
			}
			if !res.Schedulable {
				return fail(f.ID)
			}
			out.Fallbacks = append(out.Fallbacks, res.Fallback)
			work = append(work, f)
		case BatchRemove:
			idx := find(op.FlowID)
			if idx < 0 {
				return nil, fmt.Errorf("scheduler: batch op %d: flow %d not in the workload", i, op.FlowID)
			}
			if d.removeFlow(op.FlowID) == 0 {
				return nil, fmt.Errorf("scheduler: batch op %d: flow %d has no scheduled transmissions", i, op.FlowID)
			}
			out.Fallbacks = append(out.Fallbacks, FallbackNone)
			work = append(work[:idx], work[idx+1:]...)
		case BatchReroute:
			idx := find(op.FlowID)
			if idx < 0 {
				return nil, fmt.Errorf("scheduler: batch op %d: flow %d not in the workload", i, op.FlowID)
			}
			orig := work[idx]
			moved := *orig
			moved.Route = append([]flow.Link(nil), op.Route...)
			moved.TxBudget = flow.AdaptBudget(orig.TxBudget, len(op.Route))
			if err := validateDeltaFlow(sched, &moved); err != nil {
				return nil, fmt.Errorf("scheduler: batch op %d: %w", i, err)
			}
			others := make([]*flow.Flow, 0, len(work)-1)
			for _, g := range work {
				if g.ID != op.FlowID {
					others = append(others, g)
				}
			}
			d.removeFlow(op.FlowID)
			res, err := d.place(&moved, others, mark)
			if err != nil {
				d.rollback()
				return nil, fmt.Errorf("scheduler: batch op %d: %w", i, err)
			}
			if !res.Schedulable {
				return fail(op.FlowID)
			}
			out.Fallbacks = append(out.Fallbacks, res.Fallback)
			work[idx] = &moved
		default:
			return nil, fmt.Errorf("scheduler: batch op %d: unknown kind %v", i, op.Kind)
		}
		if f := out.Fallbacks[len(out.Fallbacks)-1]; f > out.Fallback {
			out.Fallback = f
		}
	}
	d.finish(&out.DeltaResult)
	sort.Slice(work, func(i, j int) bool { return work[i].ID < work[j].ID })
	out.Flows = work
	out.Elapsed = time.Since(start)
	flushDeltaMetrics(cfg.Metrics, "batch", &out.DeltaResult)
	return out, nil
}
