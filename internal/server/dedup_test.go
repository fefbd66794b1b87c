package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend/native"
	"repro/internal/bench"
	"repro/internal/core"
)

// metricsOf fetches /metrics into counter and gauge maps.
func metricsOf(t *testing.T, base string) (map[string]int64, map[string]int64) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	decodeInto(t, resp, &m)
	return m.Counters, m.Gauges
}

// streamLines drains a job's NDJSON stream to completion.
func streamLines(t *testing.T, base, id string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// trySubmit posts a spec without failing the test from a non-test
// goroutine; errors surface as a zero Record plus the error string.
func trySubmit(base string, spec Spec) (Record, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return Record{}, err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(data)))
	if err != nil {
		return Record{}, err
	}
	defer resp.Body.Close()
	var rec Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return Record{}, err
	}
	if rec.ID == "" {
		return Record{}, fmt.Errorf("submit rejected: status %d", resp.StatusCode)
	}
	return rec, nil
}

// TestResultCacheServesRepeatSweep: the acceptance-criterion e2e — a
// repeated identical sweep answers from the result cache with zero
// graph compiles and zero measured points, under a different tenant
// and a differently-spelled (but canonically equal) spec. The tenant
// still gets the job attributed, with zero vm ops.
func TestResultCacheServesRepeatSweep(t *testing.T) {
	cache := t.TempDir()
	var points atomic.Int64
	s, base := testServer(t, Config{Workers: 1, Queue: 4, CacheDir: cache,
		ResultCache: true, Coalesce: true})
	s.pointHook = func() { points.Add(1) }

	spec := Spec{Type: "sweep", Figure: "fig6a", Quick: true, Tenant: "alice"}
	first := waitTerminal(t, base, submitJob(t, base, spec).ID)
	if first.State != StateDone || first.Cached {
		t.Fatalf("first sweep: %+v", first)
	}
	firstBody, _ := fetchResult(t, base, first.ID)
	ran := points.Load()
	if ran == 0 {
		t.Fatal("first sweep measured no points")
	}
	// The worker caches a result just after the job turns done, memory
	// first, then disk. Wait for the disk entry so the repeats below
	// (memory, then a restarted daemon) do not race that write.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if m, _ := filepath.Glob(filepath.Join(cache, "results", "res-*.json")); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first sweep's result never reached the disk cache")
		}
	}

	core.ResetFullCompiles()
	// Same canonical spec: different tenant, workers knob set, default
	// axis spelled out via nil-elision — all normalization paths.
	repeat := Spec{Type: "sweep", Figure: "fig6a", Quick: true, Tenant: "bob", Workers: 4}
	second := waitTerminal(t, base, submitJob(t, base, repeat).ID)
	if second.State != StateDone || !second.Cached {
		t.Fatalf("repeat sweep not served from cache: %+v", second)
	}
	if body, _ := fetchResult(t, base, second.ID); body != firstBody {
		t.Fatal("cached result differs from the executed one")
	}
	if got := points.Load(); got != ran {
		t.Fatalf("cached sweep measured %d points, want 0", got-ran)
	}
	if got := core.FullCompiles(); got != 0 {
		t.Fatalf("cached sweep performed %d graph compiles, want 0", got)
	}

	// Tenant accounting: bob owns one job and zero vm ops.
	for _, ti := range s.tenants.list() {
		if ti.Name == "bob" {
			if ti.Jobs != 1 || ti.VMOps != 0 {
				t.Fatalf("bob accounting: %+v, want 1 job / 0 ops", ti)
			}
		}
	}

	_, gauges := metricsOf(t, base)
	if gauges["server.resultcache.hits"] != 1 || gauges["server.resultcache.stores"] == 0 {
		t.Fatalf("result cache metrics: %v", gauges)
	}

	// Disk layer: a fresh daemon over the same cachedir (empty memory
	// LRU) must serve the same spec without executing anything.
	var points2 atomic.Int64
	s2, base2 := testServer(t, Config{Workers: 1, Queue: 4, CacheDir: cache,
		ResultCache: true, Coalesce: true})
	s2.pointHook = func() { points2.Add(1) }
	core.ResetFullCompiles()
	third := waitTerminal(t, base2, submitJob(t, base2, spec).ID)
	if third.State != StateDone || !third.Cached {
		t.Fatalf("restarted daemon missed the disk result cache: %+v", third)
	}
	if body, _ := fetchResult(t, base2, third.ID); body != firstBody {
		t.Fatal("disk-cached result differs")
	}
	if points2.Load() != 0 || core.FullCompiles() != 0 {
		t.Fatalf("disk-cached sweep executed: %d points, %d compiles",
			points2.Load(), core.FullCompiles())
	}
}

// TestResultCacheNativeZeroBuilds: the `go build` half of the
// acceptance criterion — a warm daemon on the native backend with a
// poisoned GoTool (any build attempt fails loudly) still serves the
// repeated execute request, proving zero builds. Skipped where the
// native backend cannot load plugins.
func TestResultCacheNativeZeroBuilds(t *testing.T) {
	if err := native.New().Available(); err != nil {
		t.Skipf("native backend unavailable: %v", err)
	}
	cache := t.TempDir()
	cfg := Config{Workers: 1, Queue: 4, CacheDir: cache, Backend: "native", ResultCache: true}

	cold, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cold.Handler())
	spec := Spec{Type: "execute", Kernel: "saxpy", N: 64}
	first := waitTerminal(t, ts.URL, submitJob(t, ts.URL, spec).ID)
	if first.State != StateDone {
		t.Fatalf("cold job ended %s: %s", first.State, first.Error)
	}
	coldBody, _ := fetchResult(t, ts.URL, first.ID)
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cold.Shutdown(ctx)

	warm, base := testServer(t, cfg)
	nb := native.New()
	nb.GoTool = filepath.Join(t.TempDir(), "no-such-go")
	warm.RT.Backend = nb
	core.ResetFullCompiles()

	second := waitTerminal(t, base, submitJob(t, base, spec).ID)
	if second.State != StateDone || !second.Cached {
		t.Fatalf("warm job not served from result cache: %+v", second)
	}
	if body, _ := fetchResult(t, base, second.ID); body != coldBody {
		t.Fatal("cached native result differs from cold")
	}
	if got := core.FullCompiles(); got != 0 {
		t.Fatalf("%d graph compiles, want 0", got)
	}
	if builds := nb.Counters()["build"]; builds != 0 {
		t.Fatalf("%d plugin builds, want 0", builds)
	}
}

// TestCoalescedStorm: N concurrent identical sweep submissions execute
// the pipeline exactly once. One job leads, the rest attach as
// followers sharing its stream and result; every tenant still gets
// its jobs attributed. Runs under -race via the race gate.
func TestCoalescedStorm(t *testing.T) {
	const n = 8
	var points atomic.Int64
	gate := make(chan struct{})
	s, base := testServer(t, Config{Workers: 1, Queue: n + 2, Coalesce: true})
	s.pointHook = func() { points.Add(1) }
	s.beforeJob = func() { <-gate } // hold the worker until all N are submitted

	tenants := []string{"alice", "bob"}
	recs := make([]Record, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i], errs[i] = trySubmit(base,
				Spec{Type: "sweep", Figure: "fig6a", Quick: true, Tenant: tenants[i%2]})
		}(i)
	}
	wg.Wait()
	close(gate)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}

	// Exactly one leader; every follower names it.
	leaders := 0
	var leaderID string
	for _, rec := range recs {
		if rec.CoalescedWith == "" {
			leaders++
			leaderID = rec.ID
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders among %d identical submissions, want 1", leaders, n)
	}

	var refBody string
	for i, rec := range recs {
		final := waitTerminal(t, base, rec.ID)
		if final.State != StateDone {
			t.Fatalf("job %s ended %s: %s", rec.ID, final.State, final.Error)
		}
		if rec.CoalescedWith != "" && rec.CoalescedWith != leaderID {
			t.Fatalf("follower %s coalesced with %s, want %s", rec.ID, rec.CoalescedWith, leaderID)
		}
		body, _ := fetchResult(t, base, rec.ID)
		if i == 0 {
			refBody = body
		} else if body != refBody {
			t.Fatalf("job %s result differs from job %s", rec.ID, recs[0].ID)
		}
	}

	// One execution: the measured point count equals a single quick
	// fig6a axis, not n of them.
	axis, err := bench.FigureSizes("fig6a", true)
	if err != nil {
		t.Fatal(err)
	}
	if got := points.Load(); got != int64(len(axis)) {
		t.Fatalf("storm measured %d points, want %d (one run)", got, len(axis))
	}

	// Per-tenant accounting: n jobs total, and only the leader's
	// tenant carries the vm ops.
	var jobs, opsTenants int64
	for _, ti := range s.tenants.list() {
		jobs += ti.Jobs
		if ti.VMOps > 0 {
			opsTenants++
		}
	}
	if jobs != n {
		t.Fatalf("tenants account %d jobs, want %d", jobs, n)
	}
	if opsTenants != 1 {
		t.Fatalf("%d tenants carry vm ops, want 1 (the leader's)", opsTenants)
	}

	_, gauges := metricsOf(t, base)
	if gauges["server.coalesce.followers"] != n-1 {
		t.Fatalf("coalesce metrics: %v", gauges)
	}
}

// TestCoalescedFollowerStream: a follower's NDJSON stream replays the
// leader's history and then mirrors it live — terminating with its
// own done event.
func TestCoalescedFollowerStream(t *testing.T) {
	gate := make(chan struct{})
	s, base := testServer(t, Config{Workers: 1, Queue: 4, Coalesce: true})
	s.beforeJob = func() { <-gate }

	spec := Spec{Type: "sweep", Figure: "fig6a", Quick: true}
	leader := submitJob(t, base, spec)
	follower := submitJob(t, base, spec)
	if follower.CoalescedWith != leader.ID {
		t.Fatalf("follower coalesced with %q, want %s", follower.CoalescedWith, leader.ID)
	}
	close(gate)

	if final := waitTerminal(t, base, follower.ID); final.State != StateDone {
		t.Fatalf("follower ended %s: %s", final.State, final.Error)
	}
	lines := streamLines(t, base, follower.ID)
	if len(lines) < 3 { // pending + progress... + done
		t.Fatalf("follower stream too short: %v", lines)
	}
	if want := `{"event":"state","state":"pending"}`; lines[0] != want {
		t.Fatalf("follower stream starts %q, want replayed %q", lines[0], want)
	}
	last := lines[len(lines)-1]
	if last != `{"event":"done","state":"done"}` {
		t.Fatalf("follower stream ends %q", last)
	}
}

// TestSweepCheckpointResume: a daemon abandoned mid-sweep (simulated
// kill: its worker parks forever inside a point hook) leaves a
// running record plus point checkpoints in the store. A second daemon
// over the same store re-enqueues the job, restores the completed
// points, and finishes with a table byte-identical to a direct
// uninterrupted bench run.
func TestSweepCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	const interruptAfter = 3

	// Daemon 1: park the worker inside the sweep after 3 points. No
	// Shutdown — the goroutine stays parked for the test's lifetime,
	// exactly like a killed process as far as the store can tell.
	s1, err := New(Config{Workers: 1, Queue: 4, StoreDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	parked := make(chan struct{})
	s1.pointHook = func() {
		if count.Add(1) == interruptAfter {
			close(parked)
			select {} // never returns
		}
	}
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	rec := submitJob(t, ts1.URL, Spec{Type: "sweep", Figure: "fig6a", Quick: true})
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep never reached the parking point")
	}

	// The store now holds a running record and ≥ interruptAfter-1
	// checkpointed points (notePoint precedes the OnPoint hook).
	st, err := openFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := st.loadCkpt(rec.ID)
	if err != nil || len(ck) < interruptAfter-1 {
		t.Fatalf("checkpoints on disk: %d (%v), want >= %d", len(ck), err, interruptAfter-1)
	}

	// Daemon 2 over the same store resumes and finishes the job.
	s2, base2 := testServer(t, Config{Workers: 1, Queue: 4, StoreDir: dir, Resume: true})
	final := waitTerminal(t, base2, rec.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job ended %s: %s", final.State, final.Error)
	}
	if !final.Resumed {
		t.Fatal("resumed job not marked Resumed")
	}
	body, _ := fetchResult(t, base2, rec.ID)

	// Byte-identical to an uninterrupted run: the library path with
	// the daemon's quick knobs.
	suite := bench.NewSuite()
	suite.MaxRunLinear = 1 << 11
	suite.MaxRunCubic = 32
	suite.Reps = 1
	suite.RT = s2.RT.ForkTenant(nil)
	sizes, err := bench.FigureSizes("fig6a", true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := suite.RunFigure("fig6a", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if body != want {
		t.Fatalf("resumed table differs from uninterrupted run:\n%s\nvs\n%s", body, want)
	}

	counters, gauges := metricsOf(t, base2)
	if gauges["server.resume.jobs"] != 1 {
		t.Fatalf("resume gauge: %v", gauges)
	}
	if counters["server.resume.points"] < interruptAfter-1 {
		t.Fatalf("resume points counter %d, want >= %d",
			counters["server.resume.points"], interruptAfter-1)
	}

	// Terminal jobs shed their checkpoint files.
	if ck, _ := st.loadCkpt(rec.ID); ck != nil {
		t.Fatal("checkpoint file survived job completion")
	}
}

// TestResumeOffRecoversFailed: with Resume off (the zero config), an
// interrupted sweep still recovers as failed — the pre-resume
// contract TestStoreRecovery pins stays the default.
func TestResumeOffRecoversFailed(t *testing.T) {
	dir := t.TempDir()
	st, err := openFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.put(Record{ID: "j000001", Spec: Spec{Type: "sweep", Figure: "fig6a", Quick: true},
		State: StateRunning, CreatedNS: 1}); err != nil {
		t.Fatal(err)
	}
	_, base := testServer(t, Config{Workers: 1, Queue: 4, StoreDir: dir})
	if rec := getJob(t, base, "j000001"); rec.State != StateFailed {
		t.Fatalf("with Resume off, interrupted sweep recovered as %s, want failed", rec.State)
	}
}
