package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"wsan"
	"wsan/internal/schedule"
)

// fetchPart downloads one artifact part's exact bytes.
func fetchPart(t *testing.T, ts *httptest.Server, id, part string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + id + "/" + part)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s/%s: status %d", id, part, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// deltaDoc mirrors the delta.json document a reschedule job emits.
type deltaDoc struct {
	Op       string               `json:"op"`
	Flow     int                  `json:"flow"`
	Fallback string               `json:"fallback"`
	Evicted  []int                `json:"evicted"`
	Changes  []wsan.ScheduleDelta `json:"changes"`
}

// TestRescheduleJobs drives the reschedule job kind through a
// remove → add → reroute chain, checking each produced bundle stays a valid
// input for the next delta and for downstream job kinds.
func TestRescheduleJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	createTestNetwork(t, ts, "plant")
	base := mustSchedule(t, ts, "plant")

	baseFlows, err := wsan.LoadWorkload(bytes.NewReader(fetchPart(t, ts, base, "workload.json")))
	if err != nil {
		t.Fatal(err)
	}
	victim := baseFlows[2]

	// Remove one flow.
	v, code := submit(t, ts, "plant", KindReschedule, map[string]any{
		"artifact": base, "op": "remove", "flow": victim.ID,
	})
	if code != http.StatusAccepted {
		t.Fatalf("remove submit: status %d", code)
	}
	done := poll(t, ts, v.ID, 30*time.Second)
	if done.State != StateDone {
		t.Fatalf("remove job finished %v (%s)", done.State, done.Error)
	}
	removedArt := done.Artifact
	flows, err := wsan.LoadWorkload(bytes.NewReader(fetchPart(t, ts, removedArt, "workload.json")))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != len(baseFlows)-1 {
		t.Fatalf("workload after remove has %d flows, want %d", len(flows), len(baseFlows)-1)
	}
	for _, f := range flows {
		if f.ID == victim.ID {
			t.Fatalf("flow %d still in workload after removal", victim.ID)
		}
	}
	var dd deltaDoc
	if err := json.Unmarshal(fetchPart(t, ts, removedArt, "delta.json"), &dd); err != nil {
		t.Fatal(err)
	}
	if dd.Op != "remove" || dd.Flow != victim.ID || len(dd.Changes) == 0 {
		t.Fatalf("unexpected delta.json: %+v", dd)
	}
	for _, c := range dd.Changes {
		if c.Kind != schedule.Removed {
			t.Fatalf("remove delta contains an addition: %+v", c)
		}
	}

	// Add the flow back under a fresh ID, on the removed bundle.
	v, code = submit(t, ts, "plant", KindReschedule, map[string]any{
		"artifact": removedArt, "op": "add", "flow": 99,
		"src": victim.Src, "dst": victim.Dst,
		"period": victim.Period, "deadline": victim.Deadline,
	})
	if code != http.StatusAccepted {
		t.Fatalf("add submit: status %d", code)
	}
	done = poll(t, ts, v.ID, 30*time.Second)
	if done.State != StateDone {
		t.Fatalf("add job finished %v (%s)", done.State, done.Error)
	}
	addArt := done.Artifact
	flows, err = wsan.LoadWorkload(bytes.NewReader(fetchPart(t, ts, addArt, "workload.json")))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range flows {
		found = found || f.ID == 99
	}
	if !found || len(flows) != len(baseFlows) {
		t.Fatalf("workload after add: %d flows, flow 99 present: %v", len(flows), found)
	}

	// Reroute the new flow (no avoid set: the shortest route is re-derived).
	v, code = submit(t, ts, "plant", KindReschedule, map[string]any{
		"artifact": addArt, "op": "reroute", "flow": 99,
	})
	if code != http.StatusAccepted {
		t.Fatalf("reroute submit: status %d", code)
	}
	done = poll(t, ts, v.ID, 30*time.Second)
	if done.State != StateDone {
		t.Fatalf("reroute job finished %v (%s)", done.State, done.Error)
	}

	// The rescheduled bundle must remain a valid input for simulation.
	v, code = submit(t, ts, "plant", KindSimulate, map[string]any{
		"artifact": done.Artifact, "hyperperiods": 1,
	})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("simulate submit: status %d", code)
	}
	if done = poll(t, ts, v.ID, 30*time.Second); done.State != StateDone {
		t.Fatalf("simulate over rescheduled bundle finished %v (%s)", done.State, done.Error)
	}
}

// TestRescheduleValidation exercises the 400 surface of the reschedule kind.
func TestRescheduleValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")

	bad := []map[string]any{
		{"artifact": art, "op": "transmogrify", "flow": 0},
		{"artifact": art, "op": "remove", "flow": -1},
		{"artifact": art, "op": "add", "flow": 99, "src": 1, "dst": 1, "period": 100},
		{"artifact": art, "op": "add", "flow": 99, "src": 1, "dst": 2},
		{"artifact": art, "op": "add", "flow": 99, "src": 1, "dst": 2, "period": 100, "avoid": []int{3}},
		{"artifact": art, "op": "remove", "flow": 0, "period": 100},
		{"artifact": "nope", "op": "remove", "flow": 0},
	}
	for i, params := range bad {
		if _, code := submit(t, ts, "plant", KindReschedule, params); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400 (%v)", i, code, params)
		}
	}
}

// TestRetryIdempotentAfterStoreWrite reproduces the duplicate-write bug: a
// job attempt that stores its artifact and then fails with a Transient error
// (a crash between the store write and the ack) is retried — the retry must
// find the stored artifact and return it, never recomputing the pipeline or
// re-writing the store.
func TestRetryIdempotentAfterStoreWrite(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	var buf bytes.Buffer
	if err := wsan.SaveTestbed(testTestbed(t), &buf); err != nil {
		t.Fatal(err)
	}
	nw, err := srv.nets.create(CreateNetworkRequest{
		Name: "plant", Testbed: json.RawMessage(buf.Bytes()), Channels: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := srv.canonicalParams(nw, KindSchedule,
		json.RawMessage(`{"flows":3,"maxPeriodExp":1,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	key := ArtifactKey(nw.Hash, KindSchedule, canon)

	attempts := 0
	pool := NewPool(PoolConfig{
		Workers: 1, QueueCap: 2, MaxRetries: 2,
		RetryBackoff: time.Millisecond, Metrics: srv.mets,
	}, func(ctx context.Context, j *Job) (string, error) {
		attempts++
		art, runErr := srv.runJob(ctx, j)
		if attempts == 1 && runErr == nil {
			return "", Transient(errors.New("worker crashed after the store write"))
		}
		return art, runErr
	})
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{ID: "t1", Network: "plant", Kind: KindSchedule, Key: key,
		Params: canon, ctx: ctx, cancel: cancel, state: StateQueued, created: time.Now()}
	if err := pool.Submit(j); err != nil {
		t.Fatal(err)
	}
	closeCtx, closeCancel := contextWithTimeout(30 * time.Second)
	defer closeCancel()
	if err := pool.Close(closeCtx); err != nil {
		t.Fatal(err)
	}

	v := j.View()
	if v.State != StateDone || v.Artifact != key || v.Retries != 1 {
		t.Fatalf("job after retry: %+v", v)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if n := srv.store.Len(); n != 1 {
		t.Fatalf("store holds %d artifacts, want 1", n)
	}
	if got := srv.mets.CounterValue("server.cache.stored"); got != 1 {
		t.Errorf("server.cache.stored = %d, want 1", got)
	}
	// The regression signal: without the runJob idempotency probe the retry
	// recomputes and re-Puts, which counts a duplicate write.
	if got := srv.mets.CounterValue("server.cache.dup_writes"); got != 0 {
		t.Errorf("server.cache.dup_writes = %d, want 0", got)
	}
}

// TestQueueFullRetryAfter checks that 429 responses carry a Retry-After
// derived from the actual backlog, and that the estimate clamps sanely.
func TestQueueFullRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")

	// An idle pool would tell a client to retry in one second.
	if got := srv.pool.RetryAfterSeconds(); got != 1 {
		t.Fatalf("idle RetryAfterSeconds = %d, want 1", got)
	}

	long := func(seed int) map[string]any {
		return map[string]any{"artifact": art, "hyperperiods": 2_000_000, "seed": seed}
	}
	// Occupy the single worker, then fill the two queue slots.
	v1, code := submit(t, ts, "plant", KindSimulate, long(11))
	if code != http.StatusAccepted {
		t.Fatalf("job 1: status %d", code)
	}
	waitState(t, ts, v1.ID, StateRunning, 10*time.Second)
	var queued []JobView
	for seed := 12; seed <= 13; seed++ {
		v, code := submit(t, ts, "plant", KindSimulate, long(seed))
		if code != http.StatusAccepted {
			t.Fatalf("job seed %d: status %d", seed, code)
		}
		queued = append(queued, v)
	}

	// The overflow submission is rejected with the backlog-derived header:
	// 1 running + 2 queued jobs on 1 worker → 3 seconds. (The running job
	// counts: before the fix the estimate ignored busy workers and said 2.)
	body, _ := json.Marshal(map[string]any{"kind": KindSimulate, "params": long(14)})
	resp, err := http.Post(ts.URL+"/v1/networks/plant/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if ra != 3 {
		t.Errorf("Retry-After = %d, want 3", ra)
	}

	for _, v := range queued {
		doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil, nil)
	}
	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v1.ID, nil, nil)
	waitState(t, ts, v1.ID, StateCancelled, 10*time.Second)
}
