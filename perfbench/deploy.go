package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"wsan"
	"wsan/internal/soak"
)

// The deploy workload commissions new deployments: survey a fresh testbed,
// derive the network, schedule one 50-flow workload with RC, run it on the
// simulator with health-report epochs and one WiFi interferer per floor,
// and classify the reuse links with the detection policy. The survey and
// the simulator do most of the work; placement does little. One op
// commissions an Indriya site and then a WUSTL one: the two presets differ
// in cost by half, and a latency median over single deployments would jump
// between the two clusters from run to run.
const (
	deployFlows    = 50
	deployChannels = 4
	// The simulated span runs the schedule for as many hyperperiods as it
	// takes to reach deployPlacedTx scheduled transmissions, so the
	// simulator's work per deployment does not swing with the route
	// lengths of the drawn workload; about 6 health-report epochs of
	// deployEpochSlots slots, with a PRR sample every deployWindowSlots.
	deployPlacedTx    = 150_000
	deployEpochSlots  = 9_000
	deployWindowSlots = 1_500
	deployProbeSlots  = 250
	// deployMaxDraws bounds the workload draws an op makes to find an RC
	// schedulable flow set.
	deployMaxDraws = 8
	// deployOutcomeOps is the deployment prefix median_pdr is computed
	// over (three ops).
	deployOutcomeOps = 6
)

// deployment is one op's output.
type deployment struct {
	preset   string
	channels []int
	tb       *wsan.Testbed
	flows    []*wsan.Flow
	sched    *wsan.ScheduleResult
	draws    int
	// hyperperiods is how long the simulation ran.
	hyperperiods int
	sim          *wsan.SimResult
	reports      []wsan.DetectionReport
	medPDR       float64
}

func (d *deployment) digest() string {
	s := fmt.Sprintf("%s/%d/%v", d.preset, d.draws, d.sched.Schedulable)
	if d.sim == nil {
		return s
	}
	s += "/" + soak.Digest(d.sched.Schedule)
	for _, f := range d.flows {
		s += fmt.Sprintf(";%d:%d/%d", f.ID, d.sim.Released[f.ID], d.sim.Delivered[f.ID])
	}
	for _, r := range d.reports {
		s += fmt.Sprintf(";%d>%d@%d=%d", r.Link.From, r.Link.To, r.Epoch, r.Verdict)
	}
	return s
}

// perFloorInterferers places one WiFi-style interferer at the centroid of
// each floor, on the 802.15.4 channels WiFi channel 1 overlaps.
func perFloorInterferers(tb *wsan.Testbed) []wsan.Interferer {
	type acc struct {
		x, y, z float64
		n       int
	}
	floors := map[int]*acc{}
	for _, nd := range tb.Nodes {
		a := floors[nd.Floor]
		if a == nil {
			a = &acc{}
			floors[nd.Floor] = a
		}
		a.x, a.y, a.z, a.n = a.x+nd.X, a.y+nd.Y, a.z+nd.Z, a.n+1
	}
	ids := make([]int, 0, len(floors))
	for f := range floors {
		ids = append(ids, f)
	}
	sort.Ints(ids)
	var out []wsan.Interferer
	for _, f := range ids {
		a := floors[f]
		out = append(out, wsan.Interferer{
			X: a.x / float64(a.n), Y: a.y / float64(a.n), Z: a.z / float64(a.n),
			Floor: f, PowerDBm: -20, DutyCycle: 0.25, MeanBurstSlots: 20,
			Channels: []int{0, 1, 2, 3},
		})
	}
	return out
}

// simConfig is the deployment's simulation: deployPlacedTx scheduled
// transmissions' worth of hyperperiods with health-report epochs and one
// interferer per floor.
func (d *deployment) simConfig(net *wsan.Network, seed int64) wsan.SimConfig {
	placed := max(d.sched.Schedule.Len(), 1)
	d.hyperperiods = (deployPlacedTx + placed - 1) / placed
	cfg := net.NewSimConfig(d.flows, d.sched, d.hyperperiods, seed)
	cfg.EpochSlots = deployEpochSlots
	cfg.SampleWindowSlots = deployWindowSlots
	cfg.ProbeEverySlots = deployProbeSlots
	cfg.Interferers = perFloorInterferers(d.tb)
	return cfg
}

// commission runs deployment i; even deployments are Indriya sites, odd
// ones WUSTL sites.
func commission(rec *recorder, seed, i int64) (*deployment, error) {
	rng := rand.New(rand.NewSource(mix(seed, i)))
	d := &deployment{preset: []string{"indriya", "wustl"}[i%2]}
	topoSeed := rng.Int63()
	sp := rec.start("topology.generate")
	var err error
	if d.preset == "indriya" {
		d.tb, err = wsan.GenerateIndriya(topoSeed)
	} else {
		d.tb, err = wsan.GenerateWUSTL(topoSeed)
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.start("graph.derive")
	net, err := wsan.NewNetwork(d.tb, deployChannels)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	d.channels = net.Channels()
	for d.draws = 1; d.draws <= deployMaxDraws; d.draws++ {
		sp = rec.start("routing.workload")
		d.flows, err = net.GenerateWorkload(wsan.WorkloadConfig{
			NumFlows: deployFlows, MinPeriodExp: 0, MaxPeriodExp: 1,
			Traffic: wsan.PeerToPeer, Seed: rng.Int63(),
		})
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.start("scheduler.rc")
		d.sched, err = net.Schedule(d.flows, wsan.RC, wsan.ScheduleConfig{})
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		if d.sched.Schedulable {
			break
		}
	}
	if !d.sched.Schedulable {
		// An unschedulable deployment is an outcome: nothing to simulate.
		return d, nil
	}
	cfg := d.simConfig(net, rng.Int63())
	sp = rec.start("netsim.run")
	d.sim, err = wsan.Simulate(cfg)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.start("detect.classify")
	d.reports = wsan.DetectDegradation(d.sim, wsan.DefaultDetectionConfig())
	rec.end(sp)
	d.medPDR = median(d.sim.PDRs())
	return d, nil
}

func runDeploy(ctx context.Context, e env) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	// Set-up warms the code paths and the heap with one op's worth of
	// commissioning outside the op stream.
	_, setupS, err := repeatSetup(func() (struct{}, error) {
		for k := int64(0); k < 2; k++ {
			if _, err := commission(newRecorder(false, 0, time.Now()), e.seed^0xdeb107, k); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("deploy set-up: %w", err)
	}
	out.e2e["setup_s"] = setupS

	kept := map[int64]*deployment{}
	op := func(rec *recorder, i int64) (time.Duration, error) {
		root := rec.beginOp("op", i)
		lat, err := timed(func() error {
			for k := 2 * i; k < 2*i+2; k++ {
				d, err := commission(rec, e.seed, k)
				if err != nil {
					return err
				}
				kept[k] = d
			}
			return nil
		})
		rec.end(root)
		return lat, err
	}
	win := closedLoop(e, 1, deployOutcomeOps/2, op)
	out.attempted, out.failed = win.complete, win.failed
	for _, s := range win.errs {
		out.problem("%s", s)
	}
	m := summarize(win, float64(2*len(win.lat)))

	// Output checks: every schedule is valid, and the digest of the first
	// ops repeats across runs of the seed.
	var parts []string
	var pdrs []float64
	for _, i := range sortedKeys(kept) {
		d := kept[i]
		gr, err := d.tb.ReuseGraph(d.channels)
		if err != nil {
			out.problem("op %d reuse graph: %v", i, err)
			continue
		}
		if err := d.sched.Schedule.Validate(gr.AllPairsHop(), 2); err != nil {
			out.problem("op %d schedule invalid: %v", i, err)
		}
		if i < deployOutcomeOps {
			parts = append(parts, d.digest())
			if d.sim != nil {
				pdrs = append(pdrs, d.medPDR)
			}
		}
	}
	if len(parts) != deployOutcomeOps {
		out.problem("only %d of the first %d deployments completed", len(parts), deployOutcomeOps)
	}
	checkDigest(e, out, digestOf(parts))

	out.e2e["ops_per_s"] = m.opsPerS
	out.e2e["latency_p50_ms"] = m.p50ms
	out.layer["bench.latency_p99_ms"] = m.p99ms
	out.e2e["cpu_ms_per_op"] = m.cpuMsPerOp
	out.e2e["max_rss_mb"] = maxRSSMB()
	out.e2e["outcome_ratio"] = median(pdrs)
	fmt.Fprintf(stderrW, "perfbench: deploy %d deployments in %v\n", len(kept), win.elapsed.Round(time.Millisecond))

	if e.trace {
		spans := win.spans()
		out.spans = spans
		lt := layerReport(out, spans, "op")
		calls := spanDurations(spans)
		out.layer["topology.generate.ms"] = lt.meanMs("topology.generate")
		out.layer["topology.generate.share"] = lt.share("topology.generate")
		out.layer["graph.derive.ms"] = lt.meanMs("graph.derive")
		out.layer["graph.derive.share"] = lt.share("graph.derive")
		out.layer["routing.workload.us"] = lt.meanMs("routing.workload") * 1000
		out.layer["routing.workload.share"] = lt.share("routing.workload")
		rc := sortedCopy(durs(calls["scheduler.rc"], time.Microsecond))
		out.layer["scheduler.rc.p50_us"] = quantile(rc, 0.5)
		out.layer["scheduler.rc.p99_us"] = quantile(rc, 0.99)
		out.layer["scheduler.rc.share"] = lt.share("scheduler.rc")
		out.layer["netsim.run.ms"] = lt.meanMs("netsim.run")
		out.layer["netsim.run.share"] = lt.share("netsim.run")
		out.layer["detect.classify.us"] = lt.meanMs("detect.classify") * 1000
		out.layer["detect.classify.share"] = lt.share("detect.classify")
		var tx, slots, epochs, placed, schedOK, ndeploy float64
		for k, d := range kept {
			ndeploy++
			placed += float64(d.sched.Schedule.Len())
			if d.sched.Schedulable {
				schedOK++
			}
			if d.sim == nil {
				continue
			}
			for _, eps := range d.sim.LinkEpochs {
				epochs += float64(len(eps))
			}
			// Rates divide by the simulator's traced time, so count the
			// work of the traced ops only.
			if !tracedOp(k / 2) {
				continue
			}
			for _, a := range d.sim.ChannelAttempts {
				tx += float64(a)
			}
			slots += float64(d.sched.Schedule.NumSlots() * d.hyperperiods)
		}
		simSec := lt.Self["netsim.run"].Seconds()
		out.layer["netsim.run.tx_per_s"] = ratio(tx, simSec)
		out.layer["netsim.run.slots_per_s"] = ratio(slots, simSec)
		out.layer["detect.link_epochs"] = ratio(epochs, ndeploy)
		out.layer["scheduler.rc.tx_placed"] = ratio(placed, ndeploy)
		out.layer["scheduler.rc.schedulable_ratio"] = ratio(schedOK, ndeploy)
		surveyMB, simMB := deployAllocs(e.seed)
		out.layer["topology.generate.alloc_mb"] = surveyMB
		out.layer["netsim.run.alloc_mb"] = simMB
		out.layer["runtime.gc_cpu_share"] = win.gcShare
		out.layer["trace.overhead_pct"] = win.overheadPct()
	}
	return out, nil
}

// deployAllocs measures the heap allocation of the survey and of the
// simulation of deploy op 0 (an Indriya deployment), in MiB.
func deployAllocs(seed int64) (survey, sim float64) {
	a0 := allocBytes()
	if _, err := wsan.GenerateIndriya(seed); err != nil {
		return 0, 0
	}
	survey = float64(allocBytes()-a0) / (1 << 20)
	d, err := commission(newRecorder(false, 0, time.Now()), seed, 0)
	if err != nil || d.sim == nil {
		return survey, 0
	}
	net, err := wsan.NewNetwork(d.tb, deployChannels)
	if err != nil {
		return survey, 0
	}
	cfg := d.simConfig(net, 1)
	a0 = allocBytes()
	if _, err := wsan.Simulate(cfg); err != nil {
		return survey, 0
	}
	return survey, float64(allocBytes()-a0) / (1 << 20)
}
