package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wsan"
	"wsan/wsanclient"
)

// TestArtifactPartMatchesRawMessage pins the SDK's part read: every part of
// a schedule bundle and a simulate report, fetched with
// wsanclient.ArtifactPart, must equal what decoding the raw GET body into a
// json.RawMessage gives. A missing artifact or part maps to the typed
// not-found error, and a body that is not a JSON object or array is an
// error.
func TestArtifactPartMatchesRawMessage(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	createTestNetwork(t, ts, "plant")
	art := mustSchedule(t, ts, "plant")
	v, code := submit(t, ts, "plant", KindSimulate, map[string]any{
		"artifact": art, "hyperperiods": 3, "seed": 2,
	})
	if code != http.StatusAccepted {
		t.Fatalf("simulate submit: status %d", code)
	}
	sim := poll(t, ts, v.ID, 30*time.Second)
	if sim.State != StateDone {
		t.Fatalf("simulate finished %v (%s)", sim.State, sim.Error)
	}

	ctx := context.Background()
	c := wsanclient.New(ts.URL, wsanclient.Options{})
	checked := 0
	for _, id := range []string{art, sim.Artifact} {
		a, ok := srv.store.Get(id)
		if !ok {
			t.Fatalf("artifact %s not in the store", id)
		}
		for _, part := range a.PartNames() {
			raw := fetchPart(t, ts, id, part)
			var want json.RawMessage
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("%s/%s: %v", id, part, err)
			}
			got, err := c.ArtifactPart(ctx, id, part)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, part, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: ArtifactPart returned %d bytes that differ from the decoded body (%d bytes)",
					id, part, len(got), len(want))
			}
			// The stored part is the CLI file, encoder's newline included;
			// the SDK returns it without.
			if part == "schedule.json" && (!bytes.HasSuffix(raw, []byte("\n")) || bytes.HasSuffix(got, []byte("\n"))) {
				t.Errorf("%s/%s: want the newline on the wire and not in ArtifactPart's bytes", id, part)
			}
			checked++
		}
	}
	if checked != 5 {
		t.Fatalf("checked %d parts, want 5 (four bundle parts and report.json)", checked)
	}

	if _, err := c.ArtifactPart(ctx, art, "nope.json"); !wsanclient.IsNotFound(err) {
		t.Errorf("missing part: err = %v, want not found", err)
	}
	if _, err := c.ArtifactPart(ctx, "ffff", "schedule.json"); !wsanclient.IsNotFound(err) {
		t.Errorf("missing artifact: err = %v, want not found", err)
	}

	for _, body := range []string{"", "  \n", "null", "42", `"text"`, `{"a":1`, `[1,2}`, "<html></html>"} {
		bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, body)
		}))
		_, err := wsanclient.New(bad.URL, wsanclient.Options{}).ArtifactPart(ctx, "ab", "report.json")
		bad.Close()
		if err == nil {
			t.Errorf("body %q: no error", body)
		}
	}
}

// TestSharedSurveyConcurrentJobs runs simulate, converge and manage jobs at
// once on a Workers=4 pool, over one schedule artifact whose survey is the
// network's (the jobs share the entry's decoded testbed) and over a copy
// whose survey.json is re-indented (the jobs decode it fresh). Every output
// must be byte-identical to an in-process LoadTestbed plus
// Simulate/SimulateConverged/Manage on the artifact's parts, on both paths.
// Under -race it also checks that the shared testbed is only read.
func TestSharedSurveyConcurrentJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 4, QueueCap: 32})
	createTestNetwork(t, ts, "plant")
	shared := mustSchedule(t, ts, "plant")
	a, ok := srv.store.Get(shared)
	if !ok {
		t.Fatal("schedule artifact not in the store")
	}
	parts := map[string][]byte{}
	for _, name := range a.PartNames() {
		parts[name] = a.Part(name)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, parts["survey.json"], "", "\t"); err != nil {
		t.Fatal(err)
	}
	freshParts := maps.Clone(parts)
	freshParts["survey.json"] = indented.Bytes()
	fresh := ArtifactKey("reindented", KindSchedule, nil)
	if _, err := srv.store.Put(fresh, KindSchedule, freshParts); err != nil {
		t.Fatal(err)
	}

	// The two read paths, white-box: the shared survey is the entry's one
	// decode, and the re-indented one is a testbed of its own.
	nw, _ := srv.nets.get("plant")
	tbShared, _, _, err := srv.loadBundle(nw, shared)
	if err != nil {
		t.Fatal(err)
	}
	entryTB, _ := nw.testbed()
	tbFresh, _, _, err := srv.loadBundle(nw, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if tbShared != entryTB || tbFresh == entryTB {
		t.Fatal("loadBundle did not take the shared path for the network's survey and the fresh path for another")
	}
	// On a generated network the shared testbed is the decode of the
	// survey, not the generator's instance: that one keeps the gains of
	// links Encode drops, which still interfere in the simulator.
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/networks",
		map[string]any{"name": "gen", "preset": "wustl"}, nil); code != http.StatusCreated {
		t.Fatalf("register wustl: status %d", code)
	}
	gen, _ := srv.nets.get("gen")
	genTB, err := gen.testbed()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wsan.LoadTestbed(bytes.NewReader(gen.Survey))
	if err != nil {
		t.Fatal(err)
	}
	n := decoded.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for ch := 0; ch < wsan.NumChannels; ch++ {
				if genTB.GainDBm(u, v, ch) != decoded.GainDBm(u, v, ch) || genTB.PRR(u, v, ch) != decoded.PRR(u, v, ch) {
					t.Fatalf("shared testbed of a generated network differs from its survey's decode at %d→%d ch %d", u, v, ch)
				}
			}
		}
	}

	type job struct {
		kind   string
		seed   int
		params map[string]any
		out    string
	}
	var jobs []job
	for seed := 1; seed <= 3; seed++ {
		jobs = append(jobs, job{KindSimulate, seed, map[string]any{"hyperperiods": 3}, "report.json"})
	}
	for seed := 1; seed <= 2; seed++ {
		jobs = append(jobs,
			job{KindConverge, seed, map[string]any{"chunkHyperperiods": 2, "maxChunks": 3, "halfWidth": 0.5}, "report.json"},
			job{KindManage, seed, map[string]any{"maxIterations": 2, "epochSlots": 3000}, "iterations.json"},
			job{KindManage, seed, map[string]any{"maxIterations": 2, "epochSlots": 3000}, "schedule.json"})
	}

	// Submit everything before waiting on anything, so the jobs overlap on
	// the pool.
	type key struct {
		art  string
		kind string
		seed int
	}
	ids := map[key]string{}
	for _, art := range []string{shared, fresh} {
		for _, j := range jobs {
			k := key{art, j.kind, j.seed}
			if _, dup := ids[k]; dup {
				continue
			}
			p := map[string]any{"artifact": art, "seed": j.seed}
			for name, v := range j.params {
				p[name] = v
			}
			v, code := submit(t, ts, "plant", j.kind, p)
			if code != http.StatusAccepted {
				t.Fatalf("%s seed %d on %s: status %d", j.kind, j.seed, art, code)
			}
			ids[k] = v.ID
		}
	}
	arts := map[key]string{}
	for k, id := range ids {
		done := poll(t, ts, id, 120*time.Second)
		if done.State != StateDone {
			t.Fatalf("%s seed %d finished %v (%s)", k.kind, k.seed, done.State, done.Error)
		}
		arts[k] = done.Artifact
	}

	for _, j := range jobs {
		want := directRun(t, parts, j.kind, j.seed, j.out)
		for _, art := range []string{shared, fresh} {
			got := fetchPart(t, ts, arts[key{art, j.kind, j.seed}], j.out)
			if !bytes.Equal(got, want) {
				t.Errorf("%s seed %d %s over %s: daemon output differs from the in-process run",
					j.kind, j.seed, j.out, art)
			}
		}
	}
}

// directRun recomputes one job output in process from a schedule bundle's
// parts, with the parameters TestSharedSurveyConcurrentJobs submits and the
// daemon's defaults for the rest: a fresh decode of every part, no daemon.
func directRun(t *testing.T, parts map[string][]byte, kind string, seed int, out string) []byte {
	t.Helper()
	tb, err := wsan.LoadTestbed(bytes.NewReader(parts["survey.json"]))
	if err != nil {
		t.Fatal(err)
	}
	flows, err := wsan.LoadWorkload(bytes.NewReader(parts["workload.json"]))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := wsan.LoadSchedule(bytes.NewReader(parts["schedule.json"]))
	if err != nil {
		t.Fatal(err)
	}
	net, err := wsan.NewNetwork(tb, 4)
	if err != nil {
		t.Fatal(err)
	}
	sim := wsan.SimConfig{
		Testbed:            tb,
		Flows:              flows,
		Schedule:           sched.Schedule,
		Channels:           net.Channels(),
		FadingSigmaDB:      defaultSigma,
		SurveyDriftSigmaDB: defaultSigma,
		Retransmit:         true,
		Seed:               int64(seed),
	}
	var doc any
	switch kind {
	case KindSimulate:
		sim.Hyperperiods = 3
		res, err := wsan.Simulate(sim)
		if err != nil {
			t.Fatal(err)
		}
		if doc, err = buildReport(res, flows, 3); err != nil {
			t.Fatal(err)
		}
	case KindConverge:
		cres, err := wsan.SimulateConverged(sim, wsan.ConvergeOpts{ChunkHyperperiods: 2, MaxChunks: 3, HalfWidth: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := buildReport(cres.Result, flows, cres.Chunks*2)
		if err != nil {
			t.Fatal(err)
		}
		rep.Converged, rep.Chunks, rep.HalfWidth = &cres.Converged, cres.Chunks, cres.WorstHalfWidth
		doc = rep
	case KindManage:
		iters, err := wsan.Manage(wsan.ManageConfig{
			Testbed:            tb,
			Flows:              flows,
			Schedule:           sched.Schedule,
			Channels:           net.Channels(),
			EpochSlots:         3000,
			SampleWindowSlots:  3000 / 18,
			ProbeEverySlots:    250,
			FadingSigmaDB:      defaultSigma,
			SurveyDriftSigmaDB: defaultSigma,
			MaxIterations:      2,
			CompactAfterRepair: true,
			LinkPRR:            net.LinkPRR,
			Seed:               int64(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		if out == "schedule.json" {
			var buf bytes.Buffer
			if err := wsan.SaveSchedule(sched, &buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		doc = iters
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
