package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"wsan"
	"wsan/internal/experiment"
	"wsan/internal/obs"
	"wsan/internal/server/storage"
)

// The bench subcommand is the repo's reproducible performance harness: it
// measures a fixed set of hot-path workloads (the Fig. 1 figure pipeline,
// the three schedulers at the Fig. 6 operating point, and the network
// simulator) and writes the results to BENCH_schedule.json and
// BENCH_simulate.json. Each entry carries ns/op, allocs/op, bytes/op, and a
// checksum of the workload's deterministic output, so the files double as a
// regression gate: -check re-measures and fails on a >tolerance ns/op
// regression or any checksum drift versus the committed baselines.
//
//	wsansim bench -out .                       # write fresh baselines
//	wsansim bench -short -check -out bench-out # CI smoke: compare against the
//	                                           # committed files, write fresh
//	                                           # numbers for artifact upload
//
// Timings are machine-dependent; checksums are not. The checksum is computed
// from a single dedicated run, so it is identical under -short and at any
// iteration count.

const (
	benchScheduleFile    = "BENCH_schedule.json"
	benchSimulateFile    = "BENCH_simulate.json"
	benchStoreFile       = "BENCH_store.json"
	benchReliabilityFile = "BENCH_reliability.json"
	benchChurnFile       = "BENCH_churn.json"
	benchTopologyFile    = "BENCH_topology.json"
)

// storeBenchArtifacts is the artifact-store population for BENCH_store.json.
// It is NOT reduced under -short: the checksums digest the recovered set, so
// they are only stable across runs if the population is fixed. Only the
// iteration/lookup counts shrink.
const storeBenchArtifacts = 10_000

// benchEntry is one measured workload.
type benchEntry struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// Checksum is a sha256 prefix of the workload's deterministic output
	// (schedule transmissions, rendered tables, or delivery counts). It must
	// match exactly across machines and iteration counts.
	Checksum string `json:"checksum"`
	// RetainedBytes is the live heap one result of the workload holds
	// after a collection; set by the cases whose output is kept around.
	RetainedBytes int64 `json:"retained_bytes,omitempty"`
}

// benchFile is the on-disk shape of a BENCH_*.json baseline.
type benchFile struct {
	Note    string       `json:"note"`
	Entries []benchEntry `json:"entries"`
}

// benchCase pairs a workload with its iteration budget. run executes the
// workload once and returns the checksum input bytes (only its first call's
// checksum is kept). Cases that cannot express their measurement as "time N
// identical runs" (the store's p99 lookup) set custom instead, which
// produces the whole entry itself.
type benchCase struct {
	name        string
	iters       int // full-scale iterations; -short divides by 5 (min 1)
	run         func() ([]byte, error)
	warmupIters int
	custom      func(short bool) (benchEntry, error)
}

// runBench implements the bench subcommand.
func runBench(args []string, mets obs.Sink) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	short := fs.Bool("short", false, "reduced iteration counts (CI smoke; checksums are unaffected)")
	out := fs.String("out", ".", "directory the fresh BENCH_*.json results are written to")
	check := fs.Bool("check", false, "also compare the fresh results against the committed baselines")
	baseline := fs.String("baseline", ".", "directory holding the baseline BENCH_*.json files for -check")
	tol := fs.Float64("tolerance", 0.25, "allowed ns/op regression fraction in -check mode")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sched, sim, rel, err := buildBenchCases(mets)
	if err != nil {
		return err
	}
	store, cleanup, err := buildStoreBenchCases()
	if err != nil {
		return err
	}
	defer cleanup()
	files := []struct {
		name  string
		note  string
		cases []benchCase
	}{
		{benchScheduleFile, "scheduler hot paths: Fig 1 pipeline + Fig 6 operating point (100 flows, 5 channels, Indriya)", sched},
		{benchSimulateFile, "TSCH network simulator: 50-flow WUSTL schedule, one hyperperiod per op", sim},
		{benchStoreFile, "artifact store at 10k artifacts: cold-start warm-scan, and disk lookup where ns_per_op is the p99 latency", store},
		{benchReliabilityFile, "reliability-target budgeting: the planning pass over the Fig 6 Indriya workload, and a budgeted RC schedule of the 50-flow WUSTL operating point", rel},
		{benchTopologyFile, "topology survey: generate one Indriya (80-node) or WUSTL (60-node) testbed at seed 1; the checksum covers its Encode bytes, retained_bytes is one testbed's live heap", topologyBenchCases()},
		{benchChurnFile, "sustained-churn soak: 200-flow Indriya grid under a seeded add/remove/reroute/re-budget delta stream with replay-oracle checks; ns_per_op is the mean apply latency per committed delta", buildChurnBenchCases()},
	}

	failed := false
	for _, f := range files {
		fresh := benchFile{Note: f.note}
		for _, c := range f.cases {
			e, err := measureCase(c, *short)
			if err != nil {
				return fmt.Errorf("bench %s: %w", c.name, err)
			}
			fresh.Entries = append(fresh.Entries, e)
			fmt.Printf("%-24s %12d ns/op %10d B/op %8d allocs/op  %s",
				e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, e.Checksum)
			if e.RetainedBytes > 0 {
				fmt.Printf("  %d B retained", e.RetainedBytes)
			}
			fmt.Println()
		}
		path := filepath.Join(*out, f.name)
		if *check {
			if err := checkAgainstBaseline(filepath.Join(*baseline, f.name), fresh, *tol); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				failed = true
			}
		}
		if !*check || *out != *baseline {
			if err := writeBenchFile(path, fresh); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if failed {
		return fmt.Errorf("benchmark regression check failed")
	}
	return nil
}

// measureCase runs one warmup pass (whose output provides the checksum),
// then times iters passes — or defers entirely to the case's custom
// measurement when one is set. Allocation figures come from the runtime's
// allocation counters around the timed loop; the harness is single-run, so
// nothing else is allocating concurrently.
func measureCase(c benchCase, short bool) (benchEntry, error) {
	if c.custom != nil {
		return c.custom(short)
	}
	sum, err := c.run()
	if err != nil {
		return benchEntry{}, err
	}
	h := sha256.Sum256(sum)
	iters := c.iters
	if short {
		iters /= 5
	}
	if iters < 1 {
		iters = 1
	}
	for i := 0; i < c.warmupIters; i++ {
		if _, err := c.run(); err != nil {
			return benchEntry{}, err
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := c.run(); err != nil {
			return benchEntry{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := int64(iters)
	return benchEntry{
		Name:        c.name,
		NsPerOp:     elapsed.Nanoseconds() / n,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / n,
		Checksum:    fmt.Sprintf("%x", h[:8]),
	}, nil
}

// buildBenchCases constructs the schedule-side and simulate-side workloads.
// Everything is seeded, so each case's output — and therefore its checksum —
// is reproducible.
func buildBenchCases(mets obs.Sink) (sched, sim, rel []benchCase, err error) {
	// Fig 1 pipeline at benchmark scale: same code path as `wsansim fig1`,
	// two trials per data point.
	ind, err := experiment.NewIndriyaEnv(1)
	if err != nil {
		return nil, nil, nil, err
	}
	ind.Metrics = mets
	opt := experiment.Options{Trials: 2, Seed: 1, TopoSeed: 1}
	sched = append(sched, benchCase{
		name:  "fig1",
		iters: 3,
		run: func() ([]byte, error) {
			tables, err := experiment.Fig1(ind, opt)
			if err != nil {
				return nil, err
			}
			var buf []byte
			for _, t := range tables {
				buf = append(buf, t.String()...)
			}
			return buf, nil
		},
	})

	// The three schedulers at the Fig. 6 operating point: 100 peer-to-peer
	// flows on Indriya with 5 channels, the workload the paper times.
	tb, err := wsan.GenerateIndriya(1)
	if err != nil {
		return nil, nil, nil, err
	}
	net, err := wsan.NewNetwork(tb, 5)
	if err != nil {
		return nil, nil, nil, err
	}
	flows, err := net.GenerateWorkload(wsan.WorkloadConfig{
		NumFlows:     100,
		MinPeriodExp: 0,
		MaxPeriodExp: 2,
		Traffic:      wsan.PeerToPeer,
		Seed:         3,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for _, alg := range []wsan.Algorithm{wsan.NR, wsan.RA, wsan.RC} {
		alg := alg
		sched = append(sched, benchCase{
			name:        "scheduler/" + algName(alg),
			iters:       50,
			warmupIters: 2,
			run: func() ([]byte, error) {
				res, err := net.Schedule(flows, alg, wsan.ScheduleConfig{Metrics: mets})
				if err != nil {
					return nil, err
				}
				return scheduleDigest(res), nil
			},
		})
	}

	// The delta scheduler at the same operating point: flow 100 churns in and
	// out of a pinned 99-flow schedule. The add/remove pair returns the grid
	// to its base state, so every iteration measures the same churn op; the
	// checksum covers the delta changes and the restored schedule.
	base := flows[:99]
	churn := flows[99]
	baseRes, err := net.Schedule(base, wsan.RC, wsan.ScheduleConfig{})
	if err != nil {
		return nil, nil, nil, err
	}
	if !baseRes.Schedulable {
		return nil, nil, nil, fmt.Errorf("bench: 99-flow incremental base not schedulable")
	}
	sched = append(sched, benchCase{
		name:        "scheduler/incremental",
		iters:       200,
		warmupIters: 2,
		run: func() ([]byte, error) {
			add, err := net.AddFlowDelta(baseRes, base, churn, wsan.RC, wsan.ScheduleConfig{Metrics: mets})
			if err != nil {
				return nil, err
			}
			if !add.Schedulable {
				return nil, fmt.Errorf("bench: incremental add of flow %d infeasible", churn.ID)
			}
			rem, err := net.RemoveFlowDelta(baseRes, churn.ID, mets)
			if err != nil {
				return nil, err
			}
			var buf []byte
			buf = fmt.Appendf(buf, "fallback=%v;placed=%d;removed=%d;txs=%d;",
				add.Fallback, add.PlacementOps, rem.RemovalOps, baseRes.Schedule.Len())
			for _, c := range add.Changes {
				buf = fmt.Appendf(buf, "%v/%d@%d.%d;", c.Kind, c.Tx.FlowID, c.Tx.Slot, c.Tx.Offset)
			}
			return buf, nil
		},
	})

	// The simulator on a 50-flow WUSTL schedule, one hyperperiod per op with
	// a fixed simulation seed.
	wtb, err := wsan.GenerateWUSTL(1)
	if err != nil {
		return nil, nil, nil, err
	}
	wnet, err := wsan.NewNetwork(wtb, 4)
	if err != nil {
		return nil, nil, nil, err
	}
	var simFlows []*wsan.Flow
	var simRes *wsan.ScheduleResult
	for seed := int64(0); ; seed++ {
		if seed > 50 {
			return nil, nil, nil, fmt.Errorf("bench: no schedulable 50-flow WUSTL workload in seeds 0..50")
		}
		simFlows, err = wnet.GenerateWorkload(wsan.WorkloadConfig{
			NumFlows:     50,
			MinPeriodExp: 0,
			MaxPeriodExp: 0,
			Traffic:      wsan.PeerToPeer,
			Seed:         seed,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		simRes, err = wnet.Schedule(simFlows, wsan.RC, wsan.ScheduleConfig{})
		if err != nil {
			return nil, nil, nil, err
		}
		if simRes.Schedulable {
			break
		}
	}
	sim = append(sim, benchCase{
		name:        "simulate/wustl-50f",
		iters:       50,
		warmupIters: 2,
		run: func() ([]byte, error) {
			cfg := wnet.NewSimConfig(simFlows, simRes, 1, 7)
			cfg.Metrics = mets
			res, err := wsan.Simulate(cfg)
			if err != nil {
				return nil, err
			}
			return deliveryDigest(res), nil
		},
	})

	// The reliability-budgeting pass over the Fig. 6 Indriya workload: plan
	// per-hop retransmission budgets for all 100 flows at a 0.99 target.
	// Each run re-plans from clean clones so iterations are identical.
	rel = append(rel, benchCase{
		name:        "budget/apply-100f",
		iters:       500,
		warmupIters: 2,
		run: func() ([]byte, error) {
			fs := experiment.CloneFlows(flows)
			assigns, err := net.ApplyReliabilityTargets(fs, 0.99, 0, mets)
			if err != nil {
				return nil, err
			}
			return budgetDigest(assigns), nil
		},
	})

	// A budgeted RC schedule at the simulator operating point: the 50-flow
	// WUSTL workload with 0.99-target budgets, scheduled with per-hop
	// retransmission multiplicities.
	bflows := experiment.CloneFlows(simFlows)
	if _, err := wnet.ApplyReliabilityTargets(bflows, 0.99, 0, mets); err != nil {
		return nil, nil, nil, err
	}
	rel = append(rel, benchCase{
		name:        "scheduler/budget",
		iters:       50,
		warmupIters: 2,
		run: func() ([]byte, error) {
			res, err := wnet.Schedule(bflows, wsan.RC, wsan.ScheduleConfig{Metrics: mets})
			if err != nil {
				return nil, err
			}
			if !res.Schedulable {
				return nil, fmt.Errorf("bench: budgeted 50-flow WUSTL workload not schedulable")
			}
			return scheduleDigest(res), nil
		},
	})
	return sched, sim, rel, nil
}

// budgetDigest serializes budget assignments for checksumming: flow ID,
// per-hop attempts, feasibility, and the predicted delivery probability.
func budgetDigest(assigns []wsan.BudgetAssignment) []byte {
	var buf []byte
	for _, a := range assigns {
		buf = fmt.Appendf(buf, "%d:%v/%.6f/%v;", a.FlowID, a.Plan.Attempts, a.Plan.Prob, a.Plan.Feasible)
	}
	return buf
}

// topologyBenchCases times the survey generator of each testbed preset.
func topologyBenchCases() []benchCase {
	gen := func(name string, generate func(int64) (*wsan.Testbed, error)) benchCase {
		return benchCase{name: name, custom: func(short bool) (benchEntry, error) {
			return measureTopologyGen(name, generate, short)
		}}
	}
	return []benchCase{
		gen("topology/indriya-gen", wsan.GenerateIndriya),
		gen("topology/wustl-gen", wsan.GenerateWUSTL),
	}
}

// measureTopologyGen times generate(1). The checksum is over the testbed's
// Encode bytes, which stay out of the timed loop, and retained_bytes is
// the live heap one generated testbed holds.
func measureTopologyGen(name string, generate func(int64) (*wsan.Testbed, error), short bool) (benchEntry, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	live := ms.HeapAlloc
	tb, err := generate(1)
	if err != nil {
		return benchEntry{}, err
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	retained := int64(ms.HeapAlloc) - int64(live)
	var enc bytes.Buffer
	if err := wsan.SaveTestbed(tb, &enc); err != nil {
		return benchEntry{}, err
	}
	e, err := measureCase(benchCase{
		name:        name,
		iters:       100,
		warmupIters: 2,
		run: func() ([]byte, error) {
			_, err := generate(1)
			return enc.Bytes(), err
		},
	}, short)
	e.RetainedBytes = retained
	return e, err
}

// storeBenchID derives the deterministic content address of the i-th
// bench artifact.
func storeBenchID(i int) string {
	h := sha256.Sum256(fmt.Appendf(nil, "store-bench-%d", i))
	return fmt.Sprintf("%x", h)
}

// storeBenchParts builds the i-th artifact's parts: a single schedule.json
// whose bytes and size (256..768 B) depend only on i.
func storeBenchParts(i int) map[string][]byte {
	pad := make([]byte, 256+(i%9)*64)
	for j := range pad {
		pad[j] = 'a' + byte((i+j)%26)
	}
	return map[string][]byte{
		"schedule.json": fmt.Appendf(nil, `{"i":%d,"pad":"%s"}`, i, pad),
	}
}

// buildStoreBenchCases populates a throwaway disk store with
// storeBenchArtifacts deterministic artifacts and returns the two
// BENCH_store.json cases measured over it. The population is fsync-free
// (DiskOptions.NoSync): the bench measures recovery and lookup, not the
// publish path's durability syscalls. cleanup removes the store directory.
func buildStoreBenchCases() (cases []benchCase, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "wsansim-bench-store-*")
	if err != nil {
		return nil, nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	d, err := storage.OpenDisk(dir, storage.DiskOptions{NoSync: true})
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	for i := 0; i < storeBenchArtifacts; i++ {
		if _, err := d.Put(storeBenchID(i), "schedule", storeBenchParts(i)); err != nil {
			d.Close()
			cleanup()
			return nil, nil, fmt.Errorf("populating store bench: %w", err)
		}
	}
	if err := d.Close(); err != nil {
		cleanup()
		return nil, nil, err
	}
	cases = []benchCase{
		{name: "store/warmscan-10k", custom: func(short bool) (benchEntry, error) {
			return measureWarmScan(dir, short)
		}},
		{name: "store/lookup-p99-10k", custom: func(short bool) (benchEntry, error) {
			return measureLookupP99(dir, short)
		}},
	}
	return cases, cleanup, nil
}

// storeDigest checksums a store's recovered state: every artifact's ID,
// kind, part names, and size, in ID order. Created timestamps are excluded
// (they are machine time), so the digest is reproducible anywhere.
func storeDigest(s storage.Store) []byte {
	infos, _ := s.List("", 0)
	var buf []byte
	buf = fmt.Appendf(buf, "n=%d;bytes=%d;", s.Len(), s.Bytes())
	for _, in := range infos {
		buf = fmt.Appendf(buf, "%s/%s/%v/%d;", in.ID, in.Kind, in.Parts, in.Bytes)
	}
	return buf
}

// measureWarmScan times a cold start over the populated store: OpenDisk
// (manifest load + full digest verification of every part) plus Close.
func measureWarmScan(dir string, short bool) (benchEntry, error) {
	// Checksum run: the recovered set must be exactly the population.
	d, err := storage.OpenDisk(dir, storage.DiskOptions{NoSync: true})
	if err != nil {
		return benchEntry{}, err
	}
	if d.Len() != storeBenchArtifacts || d.Quarantined() != 0 {
		d.Close()
		return benchEntry{}, fmt.Errorf("warm-scan recovered %d artifacts (%d quarantined), want %d clean",
			d.Len(), d.Quarantined(), storeBenchArtifacts)
	}
	h := sha256.Sum256(storeDigest(d))
	if err := d.Close(); err != nil {
		return benchEntry{}, err
	}

	iters := 5
	if short {
		iters = 1
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		d, err := storage.OpenDisk(dir, storage.DiskOptions{NoSync: true})
		if err != nil {
			return benchEntry{}, err
		}
		if err := d.Close(); err != nil {
			return benchEntry{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := int64(iters)
	return benchEntry{
		Name:        "store/warmscan-10k",
		NsPerOp:     elapsed.Nanoseconds() / n,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / n,
		Checksum:    fmt.Sprintf("%x", h[:8]),
	}, nil
}

// measureLookupP99 samples individual disk Gets (part read + digest
// re-verification per lookup) across the whole population and reports the
// 99th-percentile latency as the entry's ns_per_op. The tail of a syscall
// microbenchmark is noisy on a shared machine, so the sampling pass runs
// three times and the smallest p99 is kept — interference only ever adds
// latency, so min-of-passes is the stable estimate the 25% regression gate
// needs. Alloc figures stay per-lookup means.
func measureLookupP99(dir string, short bool) (benchEntry, error) {
	d, err := storage.OpenDisk(dir, storage.DiskOptions{NoSync: true})
	if err != nil {
		return benchEntry{}, err
	}
	defer d.Close()

	// Checksum run: the first 100 artifacts' bytes, fetched through Get,
	// must match the deterministic population.
	var sumInput []byte
	for i := 0; i < 100; i++ {
		a, ok := d.Get(storeBenchID(i))
		if !ok {
			return benchEntry{}, fmt.Errorf("bench artifact %d missing", i)
		}
		sumInput = append(sumInput, a.Part("schedule.json")...)
	}
	h := sha256.Sum256(sumInput)

	lookups := 10_000
	if short {
		lookups = 2_000
	}
	const passes = 3
	durs := make([]time.Duration, lookups)
	var best time.Duration
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for pass := 0; pass < passes; pass++ {
		for i := range durs {
			// A co-prime stride visits IDs in a scattered, reproducible order.
			id := storeBenchID(((pass*lookups + i) * 7919) % storeBenchArtifacts)
			t0 := time.Now()
			if _, ok := d.Get(id); !ok {
				return benchEntry{}, fmt.Errorf("lookup of %s missed", id)
			}
			durs[i] = time.Since(t0)
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		p99 := durs[(len(durs)*99)/100-1]
		if pass == 0 || p99 < best {
			best = p99
		}
	}
	runtime.ReadMemStats(&after)
	n := int64(lookups * passes)
	return benchEntry{
		Name:        "store/lookup-p99-10k",
		NsPerOp:     best.Nanoseconds(),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / n,
		Checksum:    fmt.Sprintf("%x", h[:8]),
	}, nil
}

// scheduleDigest serializes a schedule's transmissions for checksumming.
func scheduleDigest(res *wsan.ScheduleResult) []byte {
	var buf []byte
	buf = fmt.Appendf(buf, "schedulable=%v;", res.Schedulable)
	for _, tx := range res.Schedule.Txs() {
		buf = fmt.Appendf(buf, "%d/%d/%d/%d/%d>%d@%d.%d;",
			tx.FlowID, tx.Instance, tx.Hop, tx.Attempt,
			tx.Link.From, tx.Link.To, tx.Slot, tx.Offset)
	}
	return buf
}

// deliveryDigest serializes per-flow release/delivery counts in flow order.
func deliveryDigest(res *wsan.SimResult) []byte {
	ids := make([]int, 0, len(res.Released))
	for id := range res.Released {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var buf []byte
	for _, id := range ids {
		buf = fmt.Appendf(buf, "%d:%d/%d;", id, res.Delivered[id], res.Released[id])
	}
	return buf
}

func algName(alg wsan.Algorithm) string {
	switch alg {
	case wsan.NR:
		return "nr"
	case wsan.RA:
		return "ra"
	default:
		return "rc"
	}
}

// buildChurnBenchCases constructs the sustained-churn soak case backing
// BENCH_churn.json. The measurement is one fixed-size soak run — the op
// count does NOT shrink under -short, because the checksum covers the final
// schedule digest and the operation counters, which must stay identical
// between the CI smoke and a full regeneration. ns_per_op is the churn
// phase's wall time divided by the committed deltas, so a throughput
// regression in the delta path's repair ladder gates the build like any
// other hot path.
func buildChurnBenchCases() []benchCase {
	return []benchCase{{
		name: "churn/soak_200f_1500ops",
		custom: func(bool) (benchEntry, error) {
			cfg := wsan.DefaultSoakConfig()
			cfg.Flows = 200
			cfg.Ops = 1_500
			cfg.OracleEvery = 500
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := wsan.Soak(context.Background(), cfg)
			if err != nil {
				return benchEntry{}, err
			}
			runtime.ReadMemStats(&after)
			if res.Applied == 0 || res.OracleChecks == 0 {
				return benchEntry{}, fmt.Errorf("soak bench did no verified work: %+v", res)
			}
			n := int64(res.Applied)
			sum := sha256.Sum256(fmt.Appendf(nil,
				"%s|applied=%d|infeasible=%d|skipped=%d|batches=%d|placed=%d|evict=%d|cascade=%d|full=%d",
				res.Digest, res.Applied, res.Infeasible, res.Skipped, res.Batches,
				res.PlacedTx, res.FallbackEvict, res.FallbackCascade, res.FallbackFull))
			return benchEntry{
				Name:        "churn/soak_200f_1500ops",
				NsPerOp:     res.Elapsed.Nanoseconds() / n,
				AllocsPerOp: int64(after.Mallocs-before.Mallocs) / n,
				BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / n,
				Checksum:    fmt.Sprintf("%x", sum[:8]),
			}, nil
		},
	}}
}

// checkAgainstBaseline compares fresh measurements to a committed baseline:
// checksums must match exactly; ns/op may regress by at most tol (timings
// below baseline always pass — machines differ, and only slowdowns gate).
func checkAgainstBaseline(path string, fresh benchFile, tol float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline %s: %w (run `wsansim bench` to create it)", path, err)
	}
	var base benchFile
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	byName := make(map[string]benchEntry, len(base.Entries))
	for _, e := range base.Entries {
		byName[e.Name] = e
	}
	for _, e := range fresh.Entries {
		b, ok := byName[e.Name]
		if !ok {
			return fmt.Errorf("%s: entry %q missing from baseline (rerun `wsansim bench`)", path, e.Name)
		}
		if e.Checksum != b.Checksum {
			return fmt.Errorf("%s: %s output changed: checksum %s, baseline %s (behavior drift — regenerate the baseline only if intended)",
				path, e.Name, e.Checksum, b.Checksum)
		}
		if limit := float64(b.NsPerOp) * (1 + tol); float64(e.NsPerOp) > limit {
			return fmt.Errorf("%s: %s regressed: %d ns/op vs baseline %d (>%.0f%% over)",
				path, e.Name, e.NsPerOp, b.NsPerOp, tol*100)
		}
	}
	fmt.Printf("%s: %d entries within %.0f%% of baseline, checksums match\n",
		path, len(fresh.Entries), tol*100)
	return nil
}

// writeBenchFile emits a baseline with stable formatting (trailing newline,
// two-space indent) so regeneration produces minimal diffs.
func writeBenchFile(path string, bf benchFile) error {
	raw, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
