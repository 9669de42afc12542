package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"wsan"
	"wsan/internal/graph"
	"wsan/internal/soak"
	"wsan/internal/topology"
)

// The sweep workload is one Monte-Carlo schedulability trial per op, the
// unit of work behind the paper's Figs. 1–7: draw a flow set, then schedule
// it under NR, RA and RC on a prebuilt Indriya network. Two callers share
// the networks, like `wsansim fig* -workers 2` and the daemon's two
// workers, so the placeRC shard pool runs nested under them.
const (
	sweepCallers  = 2
	sweepMinFlows = 20
	sweepMaxFlows = 150
	sweepMinChans = 3
	sweepMaxChans = 8
	// sweepCheckOps ops are kept whole, validated, recomputed in one
	// goroutine and digested; their digest must repeat across runs.
	sweepCheckOps = 48
	// sweepOutcomeOps is the fixed op prefix rc_schedulable_ratio is
	// computed over, so the ratio depends on the seed alone.
	sweepOutcomeOps = 1500
)

var sweepAlgs = []struct {
	alg  wsan.Algorithm
	name string
}{{wsan.NR, "nr"}, {wsan.RA, "ra"}, {wsan.RC, "rc"}}

// sweepNet is the prebuilt network for one channel count plus the reuse
// hop matrix the output check validates against.
type sweepNet struct {
	net *wsan.Network
	hop *graph.HopMatrix
}

type sweepSetup struct {
	nets        map[int]sweepNet
	surveyMs    float64
	surveyAlloc float64
	deriveMs    float64
}

// sweepParams draws op i's trial parameters from the workload seed.
func sweepParams(seed, i int64) (channels int, cfg wsan.WorkloadConfig) {
	rng := rand.New(rand.NewSource(mix(seed, i)))
	cfg.NumFlows = sweepMinFlows + rng.Intn(sweepMaxFlows-sweepMinFlows+1)
	cfg.MinPeriodExp = 0
	cfg.MaxPeriodExp = []int{2, 4}[rng.Intn(2)]
	cfg.Traffic = []wsan.Traffic{wsan.PeerToPeer, wsan.Centralized}[rng.Intn(2)]
	channels = sweepMinChans + rng.Intn(sweepMaxChans-sweepMinChans+1)
	cfg.Seed = rng.Int63()
	return channels, cfg
}

// sweepTrial is one op's output.
type sweepTrial struct {
	flows   []*wsan.Flow
	results [3]*wsan.ScheduleResult
}

func (t *sweepTrial) digest() string {
	s := fmt.Sprintf("flows=%d", len(t.flows))
	for k, r := range t.results {
		s += fmt.Sprintf(";%s:%v/%d/%d/%s", sweepAlgs[k].name, r.Schedulable, r.FailedFlow, r.Schedule.Len(), soak.Digest(r.Schedule))
	}
	return s
}

func runSweepTrial(rec *recorder, nets map[int]sweepNet, seed, i int64) (*sweepTrial, error) {
	ch, cfg := sweepParams(seed, i)
	n := nets[ch].net
	sp := rec.start("routing.workload")
	flows, err := n.GenerateWorkload(cfg)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	t := &sweepTrial{flows: flows}
	for k, a := range sweepAlgs {
		sp := rec.start("scheduler." + a.name)
		res, err := n.Schedule(flows, a.alg, wsan.ScheduleConfig{})
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		t.results[k] = res
	}
	return t, nil
}

func runSweep(ctx context.Context, e env) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	setup, setupS, err := repeatSetup(func() (*sweepSetup, error) {
		s := &sweepSetup{nets: map[int]sweepNet{}}
		a0 := allocBytes()
		t0 := time.Now()
		tb, err := wsan.GenerateIndriya(1)
		if err != nil {
			return nil, err
		}
		s.surveyMs = float64(time.Since(t0)) / float64(time.Millisecond)
		s.surveyAlloc = float64(allocBytes()-a0) / (1 << 20)
		t0 = time.Now()
		for ch := sweepMinChans; ch <= sweepMaxChans; ch++ {
			n, err := wsan.NewNetwork(tb, ch)
			if err != nil {
				return nil, err
			}
			s.nets[ch] = sweepNet{net: n}
		}
		s.deriveMs = float64(time.Since(t0)) / float64(time.Millisecond) / float64(len(s.nets))
		for ch, sn := range s.nets {
			gr, err := tb.ReuseGraph(topology.Channels(ch))
			if err != nil {
				return nil, err
			}
			sn.hop = gr.AllPairsHop()
			s.nets[ch] = sn
		}
		// Warm-up: one trial per channel count fills the scheduler's
		// pooled scratch grids and starts the shard pool.
		for ch := sweepMinChans; ch <= sweepMaxChans; ch++ {
			if _, err := runSweepTrial(newRecorder(false, 0, time.Now()), s.nets, e.seed^0x5eed, int64(ch)); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return s, nil
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("sweep set-up: %w", err)
	}
	out.e2e["setup_s"] = setupS

	// Per-op outputs the checks need: whole trials for the check prefix,
	// RC schedulability for the outcome prefix.
	var mu sync.Mutex
	kept := map[int64]*sweepTrial{}
	rcOK := map[int64]bool{}
	var trials float64
	placed, schedOK := map[string]float64{}, map[string]float64{}
	op := func(rec *recorder, i int64) (time.Duration, error) {
		var t *sweepTrial
		root := rec.beginOp("op", i)
		lat, err := timed(func() (err error) {
			t, err = runSweepTrial(rec, setup.nets, e.seed, i)
			return err
		})
		rec.end(root)
		if err != nil {
			return lat, err
		}
		mu.Lock()
		trials++
		for k, r := range t.results {
			placed[sweepAlgs[k].name] += float64(r.Schedule.Len())
			if r.Schedulable {
				schedOK[sweepAlgs[k].name]++
			}
		}
		if i < sweepCheckOps {
			kept[i] = t
		}
		if i < sweepOutcomeOps {
			rcOK[i] = t.results[2].Schedulable
		}
		mu.Unlock()
		return lat, nil
	}
	minOps := minSamplesForTail(0.99)
	win := closedLoop(e, sweepCallers, minOps, op)
	out.attempted, out.failed = win.complete, win.failed
	for _, s := range win.errs {
		out.problem("%s", s)
	}
	m := summarize(win, float64(len(win.lat)))
	requireTail(out, m.n)
	m.opsPerS = slicedRate(win.doneAt, nil, win.elapsed, time.Second)

	// Output checks, outside the measured window.
	next := win.nextOp
	for i := int64(0); i < sweepOutcomeOps; i++ {
		if _, ok := rcOK[i]; ok {
			continue
		}
		if _, err := op(newRecorder(false, 0, time.Now()), i); err != nil {
			out.problem("outcome op %d: %v", i, err)
		}
		if i >= next {
			out.attempted++
		}
	}
	ok := 0
	for i := int64(0); i < sweepOutcomeOps; i++ {
		if rcOK[i] {
			ok++
		}
	}
	var parts []string
	allocKB := map[string][]float64{}
	for i := int64(0); i < sweepCheckOps; i++ {
		t := kept[i]
		if t == nil {
			out.problem("check op %d missing", i)
			continue
		}
		ch, _ := sweepParams(e.seed, i)
		for k, r := range t.results {
			if err := r.Schedule.Validate(setup.nets[ch].hop, 2); err != nil {
				out.problem("op %d %s schedule invalid: %v", i, sweepAlgs[k].name, err)
			}
		}
		// Recompute in this goroutine alone, measuring allocations per
		// layer call; the output must match the concurrent run's.
		again, err := replaySweepTrial(setup.nets, e.seed, i, allocKB)
		if err != nil {
			out.problem("replay op %d: %v", i, err)
			continue
		}
		d := t.digest()
		if again.digest() != d {
			out.problem("op %d: output differs between the concurrent run and a sequential replay", i)
		}
		parts = append(parts, d)
	}
	checkDigest(e, out, digestOf(parts))

	out.e2e["ops_per_s"] = m.opsPerS
	out.e2e["latency_p50_ms"] = m.p50ms
	out.layer["bench.latency_p99_ms"] = m.p99ms
	out.e2e["cpu_ms_per_op"] = m.cpuMsPerOp
	out.e2e["max_rss_mb"] = maxRSSMB()
	out.e2e["outcome_ratio"] = float64(ok) / sweepOutcomeOps
	fmt.Fprintf(stderrW, "perfbench: sweep %d trials in %v (%d callers)\n", len(win.lat), win.elapsed.Round(time.Millisecond), sweepCallers)

	if e.trace {
		spans := win.spans()
		out.spans = spans
		lt := layerReport(out, spans, "op")
		out.layer["topology.generate.ms"] = setup.surveyMs
		out.layer["topology.generate.alloc_mb"] = setup.surveyAlloc
		out.layer["graph.derive.ms"] = setup.deriveMs
		out.layer["routing.workload.us"] = lt.meanMs("routing.workload") * 1000
		out.layer["routing.workload.share"] = lt.share("routing.workload")
		calls := spanDurations(spans)
		for _, a := range sweepAlgs {
			name := "scheduler." + a.name
			us := sortedCopy(durs(calls[name], time.Microsecond))
			out.layer[name+".p50_us"] = quantile(us, 0.5)
			out.layer[name+".p99_us"] = quantile(us, 0.99)
			out.layer[name+".alloc_kb"] = median(allocKB[name])
			out.layer[name+".share"] = lt.share(name)
			out.layer[name+".tx_placed"] = ratio(placed[a.name], trials)
			out.layer[name+".schedulable_ratio"] = ratio(schedOK[a.name], trials)
		}
		out.layer["runtime.gc_cpu_share"] = win.gcShare
		out.layer["trace.overhead_pct"] = win.overheadPct()
	}
	return out, nil
}

// replaySweepTrial recomputes op i in the calling goroutine, adding each
// layer call's allocated KiB to allocKB.
func replaySweepTrial(nets map[int]sweepNet, seed, i int64, allocKB map[string][]float64) (*sweepTrial, error) {
	ch, cfg := sweepParams(seed, i)
	n := nets[ch].net
	flows, err := n.GenerateWorkload(cfg)
	if err != nil {
		return nil, err
	}
	t := &sweepTrial{flows: flows}
	for k, a := range sweepAlgs {
		before := allocBytes()
		res, err := n.Schedule(flows, a.alg, wsan.ScheduleConfig{})
		if err != nil {
			return nil, err
		}
		name := "scheduler." + a.name
		allocKB[name] = append(allocKB[name], float64(allocBytes()-before)/1024)
		t.results[k] = res
	}
	return t, nil
}
