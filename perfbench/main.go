// Command perfbench is the repository's benchmark. It runs one named
// workload against the wsan packages for a fixed time, checks the outputs,
// and prints one JSON result line with the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) declared in BENCHMARK.json.
//
// Run it through perfbench/run.sh from the root of the repository:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and the metric map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// spec is the part of BENCHMARK.json the program reads: the metric names
// and units it must report.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// env is one invocation's settings.
type env struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	build    string // .bench_build under the checkout root
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int64
	problems          []string
	e2e, layer        map[string]float64
	spans             []Span
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workloadFunc func(ctx context.Context, e env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"sweep":  runSweep,
	"deploy": runDeploy,
	"churn":  runChurn,
	"daemon": runDaemon,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 records layer spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || !sp.hasWorkload(*workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	e := env{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		build:    filepath.Join(wd, ".bench_build"),
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d window=%v trace=%v GOMAXPROCS=%d %s\n",
		e.workload, e.seed, e.window, e.trace, runtime.GOMAXPROCS(0), runtime.Version())

	ctx := context.Background()
	out, err := fn(ctx, e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if e.trace {
		path := filepath.Join(e.build, "trace", fmt.Sprintf("%s-%d.jsonl", e.workload, e.seed))
		if err := writeSpans(path, out.spans); err != nil {
			out.problem("writing spans: %v", err)
		} else {
			fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(out.spans), path)
		}
	}
	declared, values := sp.EndToEnd, out.e2e
	if e.trace {
		declared, values = sp.PerLayer, out.layer
		// A layer the workload does not exercise did no work.
		for _, m := range sp.PerLayer {
			if _, ok := values[m.Name]; !ok {
				values[m.Name] = 0
			}
		}
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			out.problem("metric %s was not measured", m.Name)
			res.Correct = false
			continue
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "perfbench: CHECK FAILED:", p)
	}
	if res.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no op was attempted")
		return 1
	}
	printHuman(stderr, declared, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func printHuman(w io.Writer, declared []metricSpec, res result) {
	fmt.Fprintf(w, "perfbench: correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, m := range declared {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-44s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
}

// ---- process-level measurements ----

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSample is a snapshot of the runtime's CPU accounting.
type rtSample struct {
	gcCPU, totalCPU, idleCPU float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{gcCPU: f(0), totalCPU: f(1), idleCPU: f(2)}
}

// gcShare is the share of the CPU the process used between a and b that
// went to the garbage collector.
func gcShare(a, b rtSample) float64 {
	return ratio(b.gcCPU-a.gcCPU, (b.totalCPU-a.totalCPU)-(b.idleCPU-a.idleCPU))
}

// allocBytes is the cumulative heap allocation of the process. It stops
// the world so per-P allocation caches are counted; call it only outside
// measured windows.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// stderrW receives the human-readable progress lines.
var stderrW io.Writer = os.Stderr

// mix derives a per-op seed from the workload seed and the op index
// (splitmix64 finalizer), so op i's inputs depend on nothing else.
func mix(seed, i int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// ---- set-up ----

// setupRuns is how many times each workload repeats its set-up; setup_s is
// the median, so one slow repetition does not move it.
const setupRuns = 5

// repeatSetup runs fn setupRuns times and returns the last result and the
// median duration in seconds. discard, when non-nil, releases each earlier
// result outside the timed part.
func repeatSetup[T any](fn func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var ds []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		start := time.Now()
		v, err := fn()
		if err != nil {
			return last, 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
		last = v
	}
	return last, median(ds), nil
}

// ---- closed loop ----

// loopStats is what one closed-loop window measured.
type loopStats struct {
	lat      []time.Duration // per completed op
	elapsed  time.Duration   // window start to the last op's end
	cpu      time.Duration
	gcShare  float64
	failed   int64
	errs     []string
	recs     []*recorder
	nextOp   int64 // first op index the window did not claim
	complete int64
	// doneAt is when each successful op ended, from the window's start.
	doneAt []time.Duration
	// Mean latency of the ops that recorded spans and of those that did
	// not, in a traced run.
	tracedMean, untracedMean float64
}

// opFunc runs op i and returns the latency sample it contributes: the time
// of the calls into the program the op's user waits for, or a negative
// duration when the op made no such call.
type opFunc func(rec *recorder, i int64) (time.Duration, error)

// timed runs fn and returns its wall time, for ops whose whole body is the
// user-visible operation.
func timed(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// closedLoop runs op from callers goroutines, each starting its next op as
// soon as the previous one returns, until the run's window has elapsed and
// at least minOps latency samples were taken (or 4× the window has passed).
// Ops are numbered from 0 in claim order; spans go to per-caller recorders.
//
// In a traced run a pseudo-random half of the ops, chosen by op index,
// record spans; the other half are the untraced reference the tracing
// overhead is measured against, interleaved with the traced ones so drift
// in the workload's state affects both halves alike.
func closedLoop(e env, callers, minOps int, op opFunc) loopStats {
	var (
		next      atomic.Int64
		completed atomic.Int64
		samples   atomic.Int64
		mu        sync.Mutex
		st        loopStats
		wg        sync.WaitGroup
	)
	lats := make([][]time.Duration, callers)
	doneAt := make([][]time.Duration, callers)
	traced := make([][2]float64, callers) // per caller: {sum of traced, sum of untraced} latency
	counts := make([][2]int, callers)
	ends := make([]time.Time, callers)
	st.recs = make([]*recorder, callers)
	rt0, cpu0 := readRuntime(), cpuTime()
	start := time.Now()
	window, trace := e.window, e.trace
	hardStop := start.Add(4 * window)
	for c := 0; c < callers; c++ {
		rec := newRecorder(trace, c, start)
		st.recs[c] = rec
		wg.Add(1)
		go func(c int, rec *recorder) {
			defer wg.Done()
			for {
				now := time.Now()
				if (now.Sub(start) >= window && samples.Load() >= int64(minOps)) || now.After(hardStop) {
					return
				}
				i := next.Add(1) - 1
				k := 1
				if trace && tracedOp(i) {
					k = 0
				}
				rec.on = k == 0
				lat, err := op(rec, i)
				completed.Add(1)
				ends[c] = time.Now()
				if err != nil {
					mu.Lock()
					st.failed++
					if len(st.errs) < 5 {
						st.errs = append(st.errs, fmt.Sprintf("op %d: %v", i, err))
					}
					mu.Unlock()
					continue
				}
				doneAt[c] = append(doneAt[c], ends[c].Sub(start))
				if lat >= 0 {
					samples.Add(1)
					lats[c] = append(lats[c], lat)
					traced[c][k] += float64(lat)
					counts[c][k]++
				}
			}
		}(c, rec)
	}
	wg.Wait()
	st.cpu = cpuTime() - cpu0
	st.gcShare = gcShare(rt0, readRuntime())
	last := start
	for c := range ends {
		if ends[c].After(last) {
			last = ends[c]
		}
		st.lat = append(st.lat, lats[c]...)
		st.doneAt = append(st.doneAt, doneAt[c]...)
	}
	st.elapsed = last.Sub(start)
	var sums [2]float64
	var ns [2]int
	for c := range traced {
		for k := 0; k < 2; k++ {
			sums[k] += traced[c][k]
			ns[k] += counts[c][k]
		}
	}
	st.tracedMean, st.untracedMean = ratio(sums[0], float64(ns[0])), ratio(sums[1], float64(ns[1]))
	st.nextOp = next.Load()
	st.complete = completed.Load()
	return st
}

// tracedOp reports whether op i records spans in a traced run.
func tracedOp(i int64) bool { return mix(i, 0x7ace)&1 == 1 }

// spanDurations groups span durations by name.
func spanDurations(spans []Span) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
	}
	return out
}

// spans merges the recorders' spans.
func (st *loopStats) spans() []Span {
	var out []Span
	for _, r := range st.recs {
		out = append(out, r.spans...)
	}
	return out
}

// measured is a window's latency summary in milliseconds plus throughput.
type measured struct {
	p50ms, p99ms        float64
	opsPerS, cpuMsPerOp float64
	n                   int
}

// summarize turns a window into the closed-loop end-to-end figures; units
// is how many "ops" each completed call counts for in ops_per_s.
func summarize(st loopStats, units float64) measured {
	ms := sortedCopy(durs(st.lat, time.Millisecond))
	m := measured{n: len(ms), p50ms: quantile(ms, 0.5), p99ms: quantile(ms, 0.99)}
	m.opsPerS = ratio(units, st.elapsed.Seconds())
	m.cpuMsPerOp = ratio(float64(st.cpu)/float64(time.Millisecond), float64(st.complete))
	return m
}

// requireTail records a problem when a window left fewer samples than the
// tail-percentile rule needs for p99.
func requireTail(out *outcome, n int) {
	if !tailSupported(n, 0.99) {
		out.problem("only %d latency samples; p99 needs %d", n, minSamplesForTail(0.99))
	}
}

// overheadPct is how much longer the ops that recorded spans took, on
// average, than the interleaved ops that did not.
func (st *loopStats) overheadPct() float64 {
	return 100 * (ratio(st.tracedMean, st.untracedMean) - 1)
}

// layerReport computes the spans' self times and reports the figures every
// traced workload shares; the benchmark's own time is the self time of the
// op root spans named rootName.
func layerReport(out *outcome, spans []Span, rootName string) layerTimes {
	lt := selfTimes(spans)
	var total time.Duration
	for _, d := range lt.Self {
		total += d
	}
	out.layer["bench.self.share"] = ratio(float64(lt.Self[rootName]), float64(lt.Roots))
	out.layer["trace.accounted_share"] = ratio(float64(total), float64(lt.Roots))
	out.layer["trace.spans_per_op"] = ratio(float64(len(spans)), float64(lt.Ops))
	return lt
}

// share is the layer's self time over all op time.
func (lt layerTimes) share(name string) float64 {
	return ratio(float64(lt.Self[name]), float64(lt.Roots))
}

// meanMs is the layer's mean self time per call in milliseconds.
func (lt layerTimes) meanMs(name string) float64 {
	return ratio(float64(lt.Self[name])/float64(time.Millisecond), float64(lt.Calls[name]))
}

// ---- output digests ----

// checkDigest compares a workload's output digest for a seed with the one
// an earlier run of the same binary recorded, so a nondeterministic output
// fails the second run that sees it.
func checkDigest(e env, out *outcome, digest string) {
	exe, err := os.Executable()
	if err != nil {
		out.problem("locating the executable: %v", err)
		return
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		out.problem("hashing the executable: %v", err)
		return
	}
	sum := sha256.Sum256(data)
	dir := filepath.Join(e.build, "digests", fmt.Sprintf("%x", sum[:8]))
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.txt", e.workload, e.seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if got := strings.TrimSpace(string(prev)); got != digest {
			out.problem("output digest %s differs from %s recorded by an earlier run with seed %d", digest, got, e.seed)
		}
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			out.problem("recording digest: %v", err)
			return
		}
		if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
			out.problem("recording digest: %v", err)
		}
	default:
		out.problem("reading digest: %v", err)
	}
	fmt.Fprintf(stderrW, "perfbench: output digest %s\n", digest)
}

// digestOf hashes the given strings in order.
func digestOf(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p)
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
