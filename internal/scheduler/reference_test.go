package scheduler

import (
	"fmt"

	"wsan/internal/flow"
	"wsan/internal/schedule"
)

// This file holds the reference formulation of the scheduling engine, the
// oracle TestScanVsIndexIdentical holds Run to. It is written straight from
// the paper (Sec. V, Algorithm 1, Eq. 1) against the schedule package's
// exported API and HopGR.Dist alone: every slot is scanned, every offset is
// tried, and every ρ level redoes the search and a slot-by-slot laxity
// count. None of the engine's indexes, caches or memos is consulted, so a
// stale cache in the engine shows up as a divergence here.

// refEngine places transmissions the reference way onto sched.
type refEngine struct {
	cfg     Config
	sched   *schedule.Schedule
	lambdaR int
}

// referenceRun is the oracle counterpart of Run: the same flows, priority
// order, instances and attempt sequence, placed by refEngine. It reports
// Schedulable and FailedFlow as Run does.
func referenceRun(flows []*flow.Flow, cfg Config) (*Result, error) {
	hyper, err := flow.Hyperperiod(flows)
	if err != nil {
		return nil, err
	}
	numNodes := 0
	for _, f := range flows {
		for _, l := range f.Route {
			numNodes = max(numNodes, l.From+1, l.To+1)
		}
	}
	if cfg.HopGR != nil {
		numNodes = max(numNodes, cfg.HopGR.Len())
	}
	sched, err := schedule.New(hyper, cfg.NumChannels, numNodes)
	if err != nil {
		return nil, err
	}
	r := &refEngine{cfg: cfg, sched: sched}
	res := &Result{Schedule: sched, FailedFlow: -1}
	if cfg.Algorithm == RC {
		r.lambdaR = cfg.HopGR.Diameter()
		res.LambdaR = r.lambdaR
	}
	base := 1
	if cfg.Retransmit {
		base = 2
	}
	for _, f := range flows {
		// The instance's transmissions in order: every attempt of hop 0,
		// then of hop 1, and so on.
		var seq []schedule.Tx
		for hop, l := range f.Route {
			for a := 0; a < f.HopAttempts(hop, base); a++ {
				seq = append(seq, schedule.Tx{FlowID: f.ID, Hop: hop, Attempt: a, Link: l})
			}
		}
		links := make([]flow.Link, len(seq))
		for i, tx := range seq {
			links[i] = tx.Link
		}
		for inst := 0; inst < hyper/f.Period; inst++ {
			earliest := f.Release(inst)
			deadline := earliest + f.Deadline - 1
			for i, tx := range seq {
				slot, off, ok := r.place(tx.Link, earliest, deadline, links[i+1:])
				if !ok {
					res.FailedFlow = f.ID
					return res, nil
				}
				tx.Instance, tx.Slot, tx.Offset = inst, slot, off
				if err := sched.Place(tx); err != nil {
					return nil, fmt.Errorf("reference: %w", err)
				}
				earliest = slot + 1
			}
		}
	}
	res.Schedulable = true
	return res, nil
}

// place chooses a (slot, offset) in [earliest, deadline] for one
// transmission on link; post lists the links of the instance's
// transmissions still to place after it (T_post of Eq. 1).
//
// RC is Algorithm 1 as written: try ρ = ∞, then λ_R down to ρ_t (ρ_t alone
// under FixedRho), accepting the first placement with non-negative laxity.
// When none passes, the earliest slot found wins, and on a slot tie the
// placement found first — the highest ρ.
func (r *refEngine) place(link flow.Link, earliest, deadline int, post []flow.Link) (int, int, bool) {
	switch r.cfg.Algorithm {
	case NR:
		return r.find(link, earliest, deadline, rhoInf)
	case RA:
		return r.find(link, earliest, deadline, r.cfg.RhoT)
	}
	levels := []int{rhoInf}
	if r.lambdaR >= r.cfg.RhoT {
		top := r.lambdaR
		if r.cfg.FixedRho {
			top = r.cfg.RhoT
		}
		for rho := top; rho >= r.cfg.RhoT; rho-- {
			levels = append(levels, rho)
		}
	}
	fbSlot, fbOff, fbOK := 0, 0, false
	for _, rho := range levels {
		slot, off, ok := r.find(link, earliest, deadline, rho)
		if !ok {
			continue
		}
		if r.laxity(slot, deadline, post) >= 0 {
			return slot, off, true
		}
		if !fbOK || slot < fbSlot {
			fbSlot, fbOff, fbOK = slot, off, true
		}
	}
	return fbSlot, fbOff, fbOK
}

// find returns the earliest slot in [earliest, deadline] where neither
// endpoint of link is busy and some offset admits it: an empty cell, or at
// finite ρ an occupied cell all of whose occupants satisfy the reuse
// constraint. Among admitting offsets RA takes the most loaded and NR/RC
// the least loaded, ties to the lowest offset.
func (r *refEngine) find(link flow.Link, earliest, deadline, rho int) (int, int, bool) {
	mostLoaded := r.cfg.Algorithm == RA
	for s := max(earliest, 0); s <= deadline && s < r.sched.NumSlots(); s++ {
		if r.sched.NodeBusy(link.From, s) || r.sched.NodeBusy(link.To, s) {
			continue
		}
		best, bestLoad := -1, 0
		for c := 0; c < r.sched.NumOffsets(); c++ {
			cell := r.sched.Cell(s, c)
			if len(cell) > 0 && (rho == rhoInf || !r.compatible(link, cell, rho)) {
				continue
			}
			if best < 0 || (mostLoaded && len(cell) > bestLoad) ||
				(!mostLoaded && len(cell) < bestLoad) {
				best, bestLoad = c, len(cell)
			}
		}
		if best >= 0 {
			return s, best, true
		}
	}
	return 0, 0, false
}

// compatible is channel constraint 2(b) of Sec. V-A: link's sender is at
// least ρ hops on G_R from every occupant's receiver, and every occupant's
// sender at least ρ hops from link's receiver.
func (r *refEngine) compatible(link flow.Link, cell []schedule.Tx, rho int) bool {
	for _, o := range cell {
		if int(r.cfg.HopGR.Dist(link.From, o.Link.To)) < rho ||
			int(r.cfg.HopGR.Dist(o.Link.From, link.To)) < rho {
			return false
		}
	}
	return true
}

// laxity is Eq. 1 counted slot by slot: (d − s) − |T_post| minus, for every
// transmission in T_post, the slots in (s, d] where either of its endpoints
// is already busy. Consecutive attempts on one link share the count. The
// value is exact while non-negative; once negative the count stops, since
// every further term only lowers it.
func (r *refEngine) laxity(s, deadline int, post []flow.Link) int {
	lax := deadline - s - len(post)
	busy := 0
	for i, l := range post {
		if lax < 0 {
			break
		}
		if i == 0 || l != post[i-1] {
			busy = 0
			for t := s + 1; t <= deadline; t++ {
				if r.sched.NodeBusy(l.From, t) || r.sched.NodeBusy(l.To, t) {
					busy++
				}
			}
		}
		lax -= busy
	}
	return lax
}
