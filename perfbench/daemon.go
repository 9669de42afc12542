package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wsan"
	"wsan/internal/server"
	"wsan/wsanclient"
)

// The daemon workload drives an in-process network-manager daemon over
// loopback the way an operator's tooling does: one connection submits jobs
// and fetches artifact parts at fixed rates (an open loop: requests are due
// on a schedule whatever the daemon's state), and one SSE stream reports
// job completions. The daemon runs two workers over a disk store in a
// temporary directory, with the network registered during set-up. The mix
// covers the queue, HTTP and store layers with store reads beside writes.
const (
	daemonWorkers  = 2
	daemonChannels = 4
	daemonNetwork  = "bench"
	// daemonHot schedule artifacts are primed in set-up; they are the
	// targets of cache hits, simulate jobs and artifact-part GETs.
	daemonHot = 12
	// daemonRate is the nominal rate the latency metrics are taken at,
	// for the first daemonNominalShare of the window; with the nominal mix
	// the daemon and the client keep two cores well under half busy, so a
	// slow spell of a shared machine does not turn into queueing.
	// The rest of the window offers daemonOverloadRate, above what the
	// daemon completes on two cores; its completion rate until the backlog
	// has drained is the highest rate it sustains. The overload phase is
	// short so the backlog's artifacts stay within the store budget and
	// the primed artifacts are not evicted under it.
	daemonRate         = 500.0
	daemonNominalShare = 0.85
	daemonOverloadRate = 2500.0
	daemonSimHyper     = 2
	// daemonSlices is how many slices the nominal phase's p99 is the
	// median over.
	daemonSlices = 6
	daemonDrain  = 60 * time.Second
	// daemonCheckOps misses and simulate jobs, the last by request index
	// (the store's LRU budget may have evicted early ones), are compared
	// with an in-process recompute and digested.
	daemonCheckOps = 8
)

type reqKind int

const (
	reqMiss reqKind = iota // a unique schedule job: compute and publish
	reqHit                 // a repeated schedule job: cache hit
	reqSim                 // a simulate job on a primed artifact
	reqGet                 // an artifact-part GET
)

// drawKind picks request i's kind. The nominal phase is 2% misses, 56%
// hits and 42% GETs: a miss publishes a ~0.5 MB artifact with an fsync per
// file, and on a shared disk its latency has a long, unsteady tail; at 2%
// the p99 falls near the misses' median instead of inside that tail. The
// overload phase is 10% misses, 60% hits, 2% simulate jobs and 28% GETs.
// Simulate jobs decode a whole bundle and take several times a miss, so
// they stay out of the nominal phase, where a handful would set the p99.
func drawKind(seed int64, i int, overload bool) (reqKind, *rand.Rand) {
	rng := rand.New(rand.NewSource(mix(seed, int64(i))))
	r := rng.Intn(100)
	if !overload {
		switch {
		case r < 2:
			return reqMiss, rng
		case r < 58:
			return reqHit, rng
		}
		return reqGet, rng
	}
	switch {
	case r < 10:
		return reqMiss, rng
	case r < 70:
		return reqHit, rng
	case r < 72:
		return reqSim, rng
	}
	return reqGet, rng
}

// schedParams is a schedule job's parameter document, written out in full
// so repeated submissions are byte-identical.
type schedParams struct {
	Flows        int    `json:"flows"`
	MinPeriodExp int    `json:"minPeriodExp"`
	MaxPeriodExp int    `json:"maxPeriodExp"`
	Traffic      string `json:"traffic"`
	Alg          string `json:"alg"`
	Seed         int64  `json:"seed"`
	RhoT         int    `json:"rhoT"`
}

type simParams struct {
	Artifact     string `json:"artifact"`
	Hyperperiods int    `json:"hyperperiods"`
	Seed         int64  `json:"seed"`
}

func (p schedParams) workload() wsan.WorkloadConfig {
	tr := wsan.PeerToPeer
	if p.Traffic == "centralized" {
		tr = wsan.Centralized
	}
	return wsan.WorkloadConfig{NumFlows: p.Flows, MinPeriodExp: p.MinPeriodExp, MaxPeriodExp: p.MaxPeriodExp, Traffic: tr, Seed: p.Seed}
}

// request is one open-loop request and what became of it.
type request struct {
	kind    reqKind
	sched   schedParams // reqMiss, reqHit
	hot     int         // reqHit, reqSim, reqGet: index into the primed set
	simSeed int64
	due     time.Time
	sent    time.Time
	posted  time.Time // POST or GET returned
	done    time.Time
	job     wsanclient.Job
	err     error
}

// phase is one fixed-rate stretch of the open loop.
type phase struct {
	rate  float64
	start time.Time
	n     int
	first int // index of its first request
}

// daemon is a running daemon plus its two client connections.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	cli    *wsanclient.Client
	stream *wsanclient.Stream
	trs    []*http.Transport
	relay  chan struct{}

	mu       sync.Mutex
	terminal map[string]termEvent
}

type termEvent struct {
	at   time.Time
	view wsanclient.Job
}

func startDaemon(dir string) (*daemon, error) {
	srv, err := server.New(server.Config{
		Workers:         daemonWorkers,
		QueueCap:        1 << 14,
		StoreDir:        dir,
		StoreMaxBytes:   512 << 20,
		StoreMemBytes:   64 << 20,
		EventBuffer:     1 << 14,
		MetricsInterval: -1,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		terminal: map[string]termEvent{}, relay: make(chan struct{})}
	go func() { d.served <- d.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	newTr := func() *http.Transport {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		d.trs = append(d.trs, tr)
		return tr
	}
	d.cli = wsanclient.New(base, wsanclient.Options{HTTPClient: &http.Client{Transport: newTr()}, MaxRetries: -1})
	scli := wsanclient.New(base, wsanclient.Options{HTTPClient: &http.Client{Transport: newTr()}, MaxRetries: -1})
	d.stream, err = scli.Subscribe(context.Background(), wsanclient.StreamOptions{Buffer: 1 << 14})
	if err != nil {
		d.close()
		return nil, err
	}
	go func() {
		defer close(d.relay)
		for ev := range d.stream.Events() {
			if !wsanclient.TerminalEvent(ev.Type) {
				continue
			}
			at := time.Now()
			v, err := ev.JobData()
			if err != nil {
				continue
			}
			d.mu.Lock()
			d.terminal[v.ID] = termEvent{at: at, view: v}
			d.mu.Unlock()
		}
	}()
	return d, nil
}

// close stops the stream, the HTTP server and the daemon, and waits for
// each to end.
func (d *daemon) close() error {
	if d.stream != nil {
		d.stream.Close()
		<-d.relay
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	for _, tr := range d.trs {
		tr.CloseIdleConnections()
	}
	return err
}

func (d *daemon) terminalOf(id string) (termEvent, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.terminal[id]
	return t, ok
}

// waitJobs waits until every job ID has its terminal event.
func (d *daemon) waitJobs(ids []string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		d.mu.Lock()
		missing := 0
		for _, id := range ids {
			if _, ok := d.terminal[id]; !ok {
				missing++
			}
		}
		d.mu.Unlock()
		if missing == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// daemonInputs are the benchmark's generated inputs and the in-process
// network its output checks recompute on.
type daemonInputs struct {
	local    *wsan.Network
	hot      []schedParams
	misses   []schedParams
	schedUs  []float64
	surveyMs float64
}

// drawSchedParams draws schedulable schedule-job parameters: each candidate
// is scheduled in process first and kept only if RC schedules it, so no
// job the benchmark submits fails as unschedulable.
func drawSchedParams(in *daemonInputs, rng *rand.Rand, n int) ([]schedParams, error) {
	var out []schedParams
	for tries := 0; len(out) < n; tries++ {
		if tries > 20*n+100 {
			return nil, fmt.Errorf("found only %d schedulable daemon workloads in %d draws", len(out), tries)
		}
		p := schedParams{
			Flows: 20 + rng.Intn(41), MinPeriodExp: 0, MaxPeriodExp: 1 + rng.Intn(2),
			Traffic: []string{"p2p", "centralized"}[rng.Intn(2)], Alg: "rc", Seed: 1 + rng.Int63n(1<<40), RhoT: 2,
		}
		flows, err := in.local.GenerateWorkload(p.workload())
		if err != nil {
			continue
		}
		t0 := time.Now()
		res, err := in.local.Schedule(flows, wsan.RC, wsan.ScheduleConfig{RhoT: 2})
		in.schedUs = append(in.schedUs, float64(time.Since(t0))/float64(time.Microsecond))
		if err != nil {
			return nil, err
		}
		if res.Schedulable {
			out = append(out, p)
		}
	}
	return out, nil
}

// recompute returns the schedule.json bytes the daemon should publish for
// p.
func (in *daemonInputs) recompute(p schedParams) ([]byte, error) {
	flows, err := in.local.GenerateWorkload(p.workload())
	if err != nil {
		return nil, err
	}
	res, err := in.local.Schedule(flows, wsan.RC, wsan.ScheduleConfig{RhoT: p.RhoT})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = wsan.SaveSchedule(res, &buf)
	// The store keeps JSON parts without the encoder's final newline.
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), err
}

// daemonPlan lays out the open loop: the nominal phase, then the overload
// phase.
func daemonPlan(seed int64, window time.Duration) ([]phase, []*request) {
	nominal := window.Seconds() * daemonNominalShare
	over := window.Seconds() - nominal
	phases := []phase{
		{rate: daemonRate, n: int(daemonRate * nominal)},
		{rate: daemonOverloadRate, n: int(daemonOverloadRate * over)},
	}
	var reqs []*request
	for k := range phases {
		phases[k].first = len(reqs)
		for j := 0; j < phases[k].n; j++ {
			kind, rng := drawKind(seed, len(reqs), k > 0)
			r := &request{kind: kind, hot: rng.Intn(daemonHot), simSeed: 1 + rng.Int63n(1<<40)}
			reqs = append(reqs, r)
		}
	}
	return phases, reqs
}

func runDaemon(ctx context.Context, e env) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	phases, reqs := daemonPlan(e.seed, e.window)

	// Inputs: the local network for recomputes and the schedulable
	// parameter sets, drawn from the seed.
	in := &daemonInputs{}
	t0 := time.Now()
	tb, err := wsan.GenerateIndriya(1)
	if err != nil {
		return nil, err
	}
	in.surveyMs = float64(time.Since(t0)) / float64(time.Millisecond)
	if in.local, err = wsan.NewNetwork(tb, daemonChannels); err != nil {
		return nil, err
	}
	nMiss := 0
	for _, r := range reqs {
		if r.kind == reqMiss {
			nMiss++
		}
	}
	params, err := drawSchedParams(in, rand.New(rand.NewSource(mix(e.seed, -2))), daemonHot+nMiss)
	if err != nil {
		return nil, err
	}
	in.hot, in.misses = params[:daemonHot], params[daemonHot:]
	m := 0
	for _, r := range reqs {
		switch r.kind {
		case reqMiss:
			r.sched = in.misses[m]
			m++
		case reqHit:
			r.sched = in.hot[r.hot]
		}
	}

	// Set-up: start the daemon, register the network and prime the hot
	// set, setupRuns times; the last daemon serves the run.
	tmpRoot := filepath.Join(e.build, "tmp")
	var hotIDs []string
	var hotBytes [][]byte
	var dirs []string
	defer func() {
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}()
	d, setupS, err := repeatSetup(func() (*daemon, error) {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmpRoot, "daemon-store-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		d, err := startDaemon(dir)
		if err != nil {
			return nil, err
		}
		ids, parts, err := primeDaemon(d, in.hot)
		if err != nil {
			d.close()
			return nil, err
		}
		hotIDs, hotBytes = ids, parts
		return d, nil
	}, func(d *daemon) {
		if err := d.close(); err != nil {
			fmt.Fprintln(stderrW, "perfbench: closing a set-up daemon:", err)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("daemon set-up: %w", err)
	}
	out.e2e["setup_s"] = setupS

	// The measured open loop.
	rt0, cpu0 := readRuntime(), cpuTime()
	loopStart := time.Now().Add(20 * time.Millisecond)
	next := loopStart
	var submitted []string
	for k := range phases {
		phases[k].start = next
		pr := reqs[phases[k].first : phases[k].first+phases[k].n]
		pace(wallClock{}, next, phases[k].rate, len(pr), func(j int, due time.Time) {
			r := pr[j]
			r.due, r.sent = due, time.Now()
			d.send(r, hotIDs, hotBytes)
			if r.job.ID != "" {
				submitted = append(submitted, r.job.ID)
			}
		})
		next = dueTime(next, phases[k].rate, len(pr))
	}
	drained := d.waitJobs(submitted, daemonDrain)
	cpu := cpuTime() - cpu0
	gc := gcShare(rt0, readRuntime())
	if !drained {
		out.problem("jobs still outstanding %v after the last request was due", daemonDrain)
	}
	for _, r := range reqs {
		d.resolve(r)
	}

	// Per-phase figures.
	type phaseStats struct {
		lat       []float64 // ms, successful requests
		failed    int
		lastDone  time.Time
		backlog   int
		lagP99ms  float64
		completed int
	}
	ps := make([]phaseStats, len(phases))
	for k, ph := range phases {
		pr := reqs[ph.first : ph.first+ph.n]
		st := &ps[k]
		end := dueTime(ph.start, ph.rate, ph.n)
		var lags []float64
		for j, r := range pr {
			lags = append(lags, float64(r.sent.Sub(r.due))/float64(time.Millisecond))
			out.attempted++
			if r.err != nil {
				st.failed++
				out.failed++
				if len(out.problems) < 5 {
					out.problem("request %d (%s): %v", ph.first+j, kindName(r.kind), r.err)
				}
				continue
			}
			st.completed++
			st.lat = append(st.lat, float64(latencyFromDue(r.due, r.done))/float64(time.Millisecond))
			if r.done.After(st.lastDone) {
				st.lastDone = r.done
			}
			if r.done.After(end) {
				st.backlog++
			}
		}
		st.lagP99ms = quantile(sortedCopy(lags), 0.99)
	}
	nominal := ps[0]
	lat := sortedCopy(nominal.lat)
	p99, err := slicedP99(reqs[:phases[0].n], daemonSlices)
	if err != nil {
		out.problem("%v", err)
	}
	for k, ph := range phases {
		st := ps[k]
		fmt.Fprintf(stderrW, "perfbench: daemon %.0f req/s offered: n=%d p50=%.2fms p99=%.2fms backlog=%d lag_p99=%.2fms completed %.1f/s\n",
			ph.rate, ph.n, quantile(sortedCopy(st.lat), 0.5), quantile(sortedCopy(st.lat), 0.99), st.backlog, st.lagP99ms,
			float64(st.completed)/st.lastDone.Sub(ph.start).Seconds())
	}
	// The highest rate the daemon sustains: what it completed per second
	// while offered more than it could take, in half-second slices.
	var doneAt []time.Duration
	for _, r := range reqs[phases[1].first:] {
		if r.err == nil {
			doneAt = append(doneAt, r.done.Sub(phases[1].start))
		}
	}
	sustained := slicedRate(doneAt, nil, ps[1].lastDone.Sub(phases[1].start), 500*time.Millisecond)

	// Output checks, after the window.
	digest, pdr := checkDaemon(ctx, out, d, in, reqs, hotIDs, hotBytes)
	checkDigest(e, out, digest)
	snap, err := d.cli.Metrics(ctx)
	if err != nil {
		out.problem("metrics: %v", err)
	}
	if dropped := snap.Counters["server.events.dropped"]; dropped != 0 {
		out.problem("the daemon dropped %d events to the benchmark's stream", dropped)
	}
	if err := d.close(); err != nil {
		out.problem("daemon shutdown: %v", err)
	}

	// At the nominal rate the daemon completes what it is offered; a drop
	// below that rate means it no longer keeps up. The sustained rate under
	// overload swung by up to 30% between runs of unchanged code on a
	// shared two-core machine, so it is reported ungated with the layers.
	out.e2e["ops_per_s"] = float64(nominal.completed) / nominal.lastDone.Sub(phases[0].start).Seconds()
	out.layer["loadgen.max_rate_rps"] = sustained
	out.e2e["latency_p50_ms"] = quantile(lat, 0.5)
	out.layer["bench.latency_p99_ms"] = p99
	out.e2e["cpu_ms_per_op"] = ratio(float64(cpu)/float64(time.Millisecond), float64(len(reqs)))
	out.e2e["max_rss_mb"] = maxRSSMB()
	out.e2e["outcome_ratio"] = pdr

	if e.trace {
		out.spans = daemonSpans(reqs[:phases[0].n])
		layerReport(out, out.spans, "request")
		daemonLayers(out, reqs, phases, snap)
		out.layer["topology.generate.ms"] = in.surveyMs
		us := sortedCopy(in.schedUs)
		out.layer["scheduler.rc.p50_us"] = quantile(us, 0.5)
		out.layer["scheduler.rc.p99_us"] = quantile(us, 0.99)
		out.layer["runtime.gc_cpu_share"] = gc
		out.layer["loadgen.lag_p99_ms"] = nominal.lagP99ms
		out.layer["loadgen.backlog_end"] = float64(nominal.backlog)
	}
	return out, nil
}

// slicedP99 cuts the requests, in due order, into n equal slices, takes
// each slice's p99 latency from its due time, and returns the median over
// the slices: a single burst of disk or scheduler stalls on a shared
// machine moves one slice's figure, not the run's. Every slice must hold
// enough samples for its own p99.
func slicedP99(reqs []*request, n int) (float64, error) {
	var p99s []float64
	size := len(reqs) / n
	for k := 0; k < n; k++ {
		var ms []float64
		for _, r := range reqs[k*size : (k+1)*size] {
			if r.err == nil {
				ms = append(ms, float64(latencyFromDue(r.due, r.done))/float64(time.Millisecond))
			}
		}
		if !tailSupported(len(ms), 0.99) {
			return 0, fmt.Errorf("slice %d holds %d latency samples; p99 needs %d", k, len(ms), minSamplesForTail(0.99))
		}
		p99s = append(p99s, quantile(sortedCopy(ms), 0.99))
	}
	return median(p99s), nil
}

func kindName(k reqKind) string {
	return [...]string{"schedule-miss", "schedule-hit", "simulate", "get"}[k]
}

// primeDaemon registers the network and publishes the hot set, returning
// the artifact IDs and their schedule.json bytes.
func primeDaemon(d *daemon, hot []schedParams) ([]string, [][]byte, error) {
	ctx := context.Background()
	if _, err := d.cli.CreateNetwork(ctx, wsanclient.CreateNetworkRequest{
		Name: daemonNetwork, Preset: "indriya", TopoSeed: 1, Channels: daemonChannels,
	}); err != nil {
		return nil, nil, err
	}
	var jobs []string
	for _, p := range hot {
		j, err := d.cli.SubmitJob(ctx, daemonNetwork, wsanclient.KindSchedule, p)
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, j.ID)
	}
	if !d.waitJobs(jobs, daemonDrain) {
		return nil, nil, fmt.Errorf("priming jobs did not finish")
	}
	ids := make([]string, len(jobs))
	parts := make([][]byte, len(jobs))
	for k, id := range jobs {
		te, _ := d.terminalOf(id)
		if te.view.State != wsanclient.StateDone {
			return nil, nil, fmt.Errorf("priming job %s ended %s: %s", id, te.view.State, te.view.Error)
		}
		ids[k] = te.view.Artifact
		b, err := d.cli.ArtifactPart(ctx, ids[k], "schedule.json")
		if err != nil {
			return nil, nil, err
		}
		parts[k] = b
	}
	return ids, parts, nil
}

// send issues one request on the submit connection.
func (d *daemon) send(r *request, hotIDs []string, hotBytes [][]byte) {
	ctx := context.Background()
	switch r.kind {
	case reqMiss, reqHit:
		r.job, r.err = d.cli.SubmitJob(ctx, daemonNetwork, wsanclient.KindSchedule, r.sched)
		r.posted = time.Now()
	case reqSim:
		r.job, r.err = d.cli.SubmitJob(ctx, daemonNetwork, wsanclient.KindSimulate,
			simParams{Artifact: hotIDs[r.hot], Hyperperiods: daemonSimHyper, Seed: r.simSeed})
		r.posted = time.Now()
	case reqGet:
		b, err := d.cli.ArtifactPart(ctx, hotIDs[r.hot], "schedule.json")
		r.posted = time.Now()
		r.done = r.posted
		switch {
		case err != nil:
			r.err = err
		case !bytes.Equal(b, hotBytes[r.hot]):
			r.err = fmt.Errorf("artifact %s schedule.json differs from the bytes it was published with", hotIDs[r.hot])
		}
	}
}

// resolve settles a job request's completion from the POST response and
// the stream's terminal event, whichever the client saw first.
func (d *daemon) resolve(r *request) {
	if r.kind == reqGet || r.err != nil {
		return
	}
	te, ok := d.terminalOf(r.job.ID)
	switch {
	case ok:
		r.done = te.at
		if r.job.State.Terminal() && r.posted.Before(r.done) {
			r.done = r.posted
		}
		r.job = te.view
	case r.job.State.Terminal():
		r.done = r.posted
	default:
		r.err = fmt.Errorf("job %s never reached a terminal state", r.job.ID)
		return
	}
	if r.job.State != wsanclient.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", r.job.ID, r.job.State, r.job.Error)
	}
}

// checkDaemon verifies the daemon's outputs after the window: the last
// misses' schedule.json equal an in-process recompute, every hit returned
// its primed artifact, and the last simulate reports are digested with the
// miss schedules. It returns the digest and the median of the simulate
// reports' median flow PDR.
func checkDaemon(ctx context.Context, out *outcome, d *daemon, in *daemonInputs, reqs []*request, hotIDs []string, hotBytes [][]byte) (string, float64) {
	var parts []string
	var pdrs []float64
	misses, sims, hits := 0, 0, 0
	for i := len(reqs) - 1; i >= 0; i-- {
		r := reqs[i]
		if r.err != nil {
			continue
		}
		switch {
		case r.kind == reqMiss && misses < daemonCheckOps:
			misses++
			got, err := d.cli.ArtifactPart(ctx, r.job.Artifact, "schedule.json")
			if err != nil {
				out.problem("request %d: %v", i, err)
				continue
			}
			want, err := in.recompute(r.sched)
			if err != nil {
				out.problem("request %d recompute: %v", i, err)
				continue
			}
			if !bytes.Equal(got, want) {
				out.problem("request %d: artifact %s schedule.json differs from an in-process recompute", i, r.job.Artifact)
			}
			parts = append(parts, string(got))
		case r.kind == reqSim && sims < daemonCheckOps:
			sims++
			rep, err := d.cli.ArtifactPart(ctx, r.job.Artifact, "report.json")
			if err != nil {
				out.problem("request %d: %v", i, err)
				continue
			}
			var doc struct {
				PDRSummary struct{ Median float64 } `json:"pdrSummary"`
			}
			if err := json.Unmarshal(rep, &doc); err != nil {
				out.problem("request %d report: %v", i, err)
				continue
			}
			pdrs = append(pdrs, doc.PDRSummary.Median)
			parts = append(parts, string(rep))
		case r.kind == reqHit:
			if !r.job.Cached || r.job.Artifact != hotIDs[r.hot] {
				out.problem("request %d: repeated schedule job was not served the primed artifact (cached=%v artifact=%s)", i, r.job.Cached, r.job.Artifact)
				continue
			}
			if hits < daemonCheckOps {
				hits++
				got, err := d.cli.ArtifactPart(ctx, r.job.Artifact, "schedule.json")
				if err != nil || !bytes.Equal(got, hotBytes[r.hot]) {
					out.problem("request %d: cache hit bytes differ from the primed artifact (%v)", i, err)
				}
			}
		}
	}
	if misses < daemonCheckOps || sims < daemonCheckOps {
		out.problem("only %d misses and %d simulate jobs to check", misses, sims)
	}
	return digestOf(parts), median(pdrs)
}

// daemonSpans assembles each nominal-phase request's spans from the
// timestamps the run takes anyway: the request (due to done), the POST or GET round trip,
// and for jobs the wait for the terminal event.
func daemonSpans(reqs []*request) []Span {
	var spans []Span
	if len(reqs) == 0 {
		return nil
	}
	origin := reqs[0].due
	ns := func(t time.Time) int64 { return int64(t.Sub(origin)) }
	for i, r := range reqs {
		if r.err != nil {
			continue
		}
		root := len(spans)
		spans = append(spans, Span{Op: int64(i), ID: root, Parent: -1, Name: "request", Start: ns(r.due), End: ns(r.done)})
		call := "server.submit"
		if r.kind == reqGet {
			call = "storage.get"
		}
		// A cache hit's terminal event can beat the POST response; the
		// request ends at whichever the client saw first.
		end := r.posted
		if r.done.Before(end) {
			end = r.done
		}
		spans = append(spans, Span{Op: int64(i), ID: len(spans), Parent: root, Name: call, Start: ns(r.sent), End: ns(end)})
		if r.kind != reqGet && r.done.After(r.posted) {
			spans = append(spans, Span{Op: int64(i), ID: len(spans), Parent: root, Name: "server.wait", Start: ns(r.posted), End: ns(r.done)})
		}
	}
	return spans
}

// daemonLayers reports the queue, HTTP and store figures: round trips,
// queue waits and notification delays at the nominal rate, job run times
// over the whole run (simulate jobs run only in the overload phase).
func daemonLayers(out *outcome, reqs []*request, phases []phase, snap wsanclient.MetricsSnapshot) {
	var submit, get, wait, notify []float64
	run := map[reqKind][]float64{}
	refused, submits := 0, 0
	for i, r := range reqs {
		nominal := i < phases[0].n
		if r.kind == reqGet {
			if r.err == nil && nominal {
				get = append(get, float64(r.posted.Sub(r.sent))/float64(time.Microsecond))
			}
			continue
		}
		submits++
		var apiErr *wsanclient.APIError
		if errors.As(r.err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
			refused++
		}
		if r.err != nil {
			continue
		}
		if nominal {
			submit = append(submit, float64(r.posted.Sub(r.sent))/float64(time.Microsecond))
		}
		if r.job.Cached || r.job.Started == nil || r.job.Finished == nil {
			continue
		}
		run[r.kind] = append(run[r.kind], float64(r.job.Finished.Sub(*r.job.Started))/float64(time.Millisecond))
		if nominal {
			wait = append(wait, float64(r.job.Started.Sub(r.job.Created))/float64(time.Millisecond))
			notify = append(notify, float64(r.done.Sub(*r.job.Finished))/float64(time.Microsecond))
		}
	}
	q := func(xs []float64, p float64) float64 { return quantile(sortedCopy(xs), p) }
	out.layer["server.submit.p50_us"] = q(submit, 0.5)
	out.layer["server.submit.p99_us"] = q(submit, 0.99)
	out.layer["server.queue_wait.p50_ms"] = q(wait, 0.5)
	out.layer["server.queue_wait.p99_ms"] = q(wait, 0.99)
	out.layer["server.run.schedule.p50_ms"] = q(run[reqMiss], 0.5)
	out.layer["server.run.simulate.p50_ms"] = q(run[reqSim], 0.5)
	out.layer["server.notify.p50_us"] = q(notify, 0.5)
	hits, misses := snap.Counters["server.cache.hits"], snap.Counters["server.cache.misses"]
	out.layer["server.cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	out.layer["server.refused_ratio"] = ratio(float64(refused), float64(submits))
	out.layer["storage.get.p50_us"] = q(get, 0.5)
	out.layer["storage.get.p99_us"] = q(get, 0.99)
	out.layer["storage.bytes_per_artifact"] = ratio(snap.Gauges["server.cache.bytes"], snap.Gauges["server.cache.artifacts"])
	// The spans are assembled after the run from timestamps the untraced
	// run takes as well, so tracing adds no work to the measured loop.
	out.layer["trace.overhead_pct"] = 0
}
