package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend/native"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernels"
)

// testServer boots a server (no TCP listener of its own) behind an
// httptest front end and tears both down with the test.
func testServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts.URL
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// submitJob posts a spec and returns the accepted record.
func submitJob(t *testing.T, base string, spec Spec) Record {
	t.Helper()
	resp := postJSON(t, base+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		defer resp.Body.Close()
		var e errorBody
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, e.Error)
	}
	var rec Record
	decodeInto(t, resp, &rec)
	return rec
}

func getJob(t *testing.T, base, id string) Record {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("get %s: status %d", id, resp.StatusCode)
	}
	var rec Record
	decodeInto(t, resp, &rec)
	return rec
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, base, id string) Record {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		rec := getJob(t, base, id)
		if rec.State.Terminal() {
			return rec
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Record{}
}

func fetchResult(t *testing.T, base, id string) (string, string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := copyAll(&sb, resp); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d: %s", id, resp.StatusCode, sb.String())
	}
	return sb.String(), resp.Header.Get("Content-Type")
}

func copyAll(sb *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 32*1024)
	var n int64
	for {
		m, err := resp.Body.Read(buf)
		sb.Write(buf[:m])
		n += int64(m)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

// TestExecuteMatchesLibraryPath runs saxpy through the daemon and
// through the library directly: the served output buffer must be
// bit-identical to an in-process Call with the same inputs.
func TestExecuteMatchesLibraryPath(t *testing.T) {
	_, base := testServer(t, Config{Workers: 1, Queue: 4})

	const n = 256
	rec := submitJob(t, base, Spec{Type: "execute", Kernel: "saxpy", N: n})
	final := waitTerminal(t, base, rec.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	body, ctype := fetchResult(t, base, rec.ID)
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("unexpected content type %q", ctype)
	}
	var got ExecResult
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}

	rt := core.DefaultRuntime()
	kn, err := rt.Compile(kernels.StagedSaxpy(rt.Arch.Features))
	if err != nil {
		t.Fatal(err)
	}
	a, b := randSlice(n, 1), randSlice(n, 2)
	if _, err := kn.Call(a, b, float32(2.5), n); err != nil {
		t.Fatal(err)
	}
	want := hexF32s(a)
	if len(got.Output) != len(want) {
		t.Fatalf("output length %d, want %d", len(got.Output), len(want))
	}
	for i := range want {
		if got.Output[i] != want[i] {
			t.Fatalf("output[%d] = %s, want %s (served path diverged from library)", i, got.Output[i], want[i])
		}
	}
	if got.VMOps == 0 {
		t.Fatal("vm_ops not reported")
	}
}

// TestSweepMatchesCLI reruns a figure sweep as a job and requires the
// result payload to be byte-identical to Suite.RunFigure — the exact
// code path behind `ngen -quick fig6a`.
func TestSweepMatchesCLI(t *testing.T) {
	_, base := testServer(t, Config{Workers: 1, Queue: 4})
	sizes := []int{64, 128}

	rec := submitJob(t, base, Spec{Type: "sweep", Figure: "fig6a", Quick: true, Sizes: sizes})
	final := waitTerminal(t, base, rec.ID)
	if final.State != StateDone {
		t.Fatalf("sweep ended %s: %s", final.State, final.Error)
	}
	got, ctype := fetchResult(t, base, rec.ID)
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("unexpected content type %q", ctype)
	}

	s := bench.NewSuite()
	s.MaxRunLinear = 1 << 11
	s.MaxRunCubic = 32
	s.Reps = 1
	want, err := s.RunFigure("fig6a", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("served sweep diverged from the CLI path:\n--- served ---\n%s--- cli ---\n%s", got, want)
	}
}

// TestStreamEvents subscribes to a sweep job's NDJSON stream and
// checks the full event sequence: pending, running, monotonically
// increasing progress, and a terminal done event that closes the body.
func TestStreamEvents(t *testing.T) {
	_, base := testServer(t, Config{Workers: 1, Queue: 4})
	rec := submitJob(t, base, Spec{Type: "sweep", Figure: "fig6a", Quick: true, Sizes: []int{64, 128, 256}})

	resp, err := http.Get(base + "/v1/jobs/" + rec.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("too few events: %+v", events)
	}
	if events[0].Event != "state" || events[0].State != StatePending {
		t.Fatalf("first event %+v, want pending", events[0])
	}
	last := events[len(events)-1]
	if last.Event != "done" || last.State != StateDone {
		t.Fatalf("last event %+v, want done", last)
	}
	prev := 0
	total := 0
	for _, ev := range events {
		if ev.Event != "progress" {
			continue
		}
		if ev.Done <= prev {
			t.Fatalf("progress not monotonic: %+v after done=%d", ev, prev)
		}
		prev, total = ev.Done, ev.Total
	}
	if prev != total || total == 0 {
		t.Fatalf("progress ended at %d/%d", prev, total)
	}
}

// TestQueueOverflow fills the worker and the one queue slot, then
// requires admission control to reject the next submission with 429 +
// Retry-After — and the rejected job must leave no trace. The queued
// job is then cancelled while still pending.
func TestQueueOverflow(t *testing.T) {
	s, base := testServer(t, Config{Workers: 1, Queue: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.beforeJob = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	j1 := submitJob(t, base, Spec{Type: "execute", Kernel: "saxpy", N: 64})
	<-entered // worker holds j1, queue empty
	j2 := submitJob(t, base, Spec{Type: "execute", Kernel: "saxpy", N: 64})

	resp := postJSON(t, base+"/v1/jobs", Spec{Type: "execute", Kernel: "saxpy", N: 64})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull queue returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()

	// The rejected submission must not appear in the job list.
	var listed []Record
	lresp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, lresp, &listed)
	if len(listed) != 2 {
		t.Fatalf("job list has %d entries after rejection, want 2: %+v", len(listed), listed)
	}

	// Cancel the queued job before a worker reaches it.
	cresp := postJSON(t, base+"/v1/jobs/"+j2.ID+"/cancel", struct{}{})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel pending: status %d", cresp.StatusCode)
	}
	cresp.Body.Close()
	close(release)

	if rec := waitTerminal(t, base, j1.ID); rec.State != StateDone {
		t.Fatalf("j1 ended %s: %s", rec.State, rec.Error)
	}
	if rec := waitTerminal(t, base, j2.ID); rec.State != StateCancelled {
		t.Fatalf("cancelled pending job ended %s", rec.State)
	}
	// A result request for the cancelled job conflicts.
	rresp, err := http.Get(base + "/v1/jobs/" + j2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: status %d, want 409", rresp.StatusCode)
	}
}

// TestCancelMidSweep cancels a running sweep and requires the job to
// land in cancelled, with the executor interrupted at a point boundary
// rather than running the sweep to completion.
func TestCancelMidSweep(t *testing.T) {
	s, base := testServer(t, Config{Workers: 1, Queue: 4})
	firstPoint := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.pointHook = func() {
		once.Do(func() { close(firstPoint) })
		select {
		case <-release:
		case <-time.After(30 * time.Second):
		}
	}

	rec := submitJob(t, base, Spec{Type: "sweep", Figure: "fig6a", Quick: true, Workers: 1})
	<-firstPoint // sweep is mid-flight, holding the first measured point
	cresp := postJSON(t, base+"/v1/jobs/"+rec.ID+"/cancel", struct{}{})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: status %d", cresp.StatusCode)
	}
	cresp.Body.Close()
	close(release)

	final := waitTerminal(t, base, rec.ID)
	if final.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", final.State)
	}
	if final.Result != "" {
		t.Fatal("cancelled sweep kept a result payload")
	}
}

// TestStoreRecovery restarts the daemon over a populated job store:
// terminal jobs come back verbatim (result included), a record stuck
// in running — a simulated crash — resurfaces as failed, a corrupt
// file is counted and skipped, and the id sequence resumes above every
// recovered id.
func TestStoreRecovery(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(Config{Workers: 1, Queue: 4, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	rec := submitJob(t, ts1.URL, Spec{Type: "execute", Kernel: "saxpy", N: 64})
	done := waitTerminal(t, ts1.URL, rec.ID)
	if done.State != StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	result1, _ := fetchResult(t, ts1.URL, rec.ID)
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s1.Shutdown(ctx)

	// Simulate a crash: a record persisted mid-run plus a torn file.
	st, err := openFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.put(Record{ID: "j000077", Spec: Spec{Type: "sweep", Figure: "fig6a"},
		State: StateRunning, CreatedNS: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-j000099.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, base := testServer(t, Config{Workers: 1, Queue: 4, StoreDir: dir})
	if got := s2.store.Corrupt(); got != 1 {
		t.Fatalf("corrupt count %d, want 1", got)
	}
	back := getJob(t, base, rec.ID)
	if back.State != StateDone || back.Result != done.Result {
		t.Fatalf("done job did not survive the restart: %+v", back)
	}
	if body, _ := fetchResult(t, base, rec.ID); body != result1 {
		t.Fatal("recovered result payload differs from the pre-restart one")
	}
	crashed := getJob(t, base, "j000077")
	if crashed.State != StateFailed || !strings.Contains(crashed.Error, "restarted while job was running") {
		t.Fatalf("crashed job recovered as %+v", crashed)
	}
	// New ids continue above the recovered sequence.
	next := submitJob(t, base, Spec{Type: "execute", Kernel: "saxpy", N: 8})
	if next.ID <= "j000077" {
		t.Fatalf("id sequence regressed: %s", next.ID)
	}
	if rec := waitTerminal(t, base, next.ID); rec.State != StateDone {
		t.Fatalf("post-recovery job ended %s: %s", rec.State, rec.Error)
	}
}

// TestSubmitValidation checks that malformed specs are rejected at the
// door with 400, before consuming a queue slot.
func TestSubmitValidation(t *testing.T) {
	_, base := testServer(t, Config{Workers: 1, Queue: 4})
	bad := []Spec{
		{Type: "explode"},
		{Type: "execute", Kernel: "no-such-kernel", N: 8},
		{Type: "execute", Kernel: "saxpy", N: 0},
		{Type: "execute", Kernel: "saxpy", N: maxExecLinear + 1},
		{Type: "execute", Kernel: "mmm_blocked", N: 12}, // not a multiple of 8
		{Type: "execute", Kernel: "saxpy", N: 8, Machine: "no-such-uarch"},
		{Type: "execute", Kernel: "logistic", N: 8}, // stageable, not executable
		{Type: "sweep", Figure: "fig9"},
		{Type: "sweep", Figure: "fig6a", Machine: "SkylakeX"},
	}
	for _, spec := range bad {
		resp := postJSON(t, base+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %+v: status %d, want 400", spec, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestDot32RejectsPartialIterations: dot32 reads 32 floats per loop
// iteration, so an n that is not a multiple of 32 is a 400 at submit
// rather than a job that fails with an out-of-bounds read.
func TestDot32RejectsPartialIterations(t *testing.T) {
	_, base := testServer(t, Config{Workers: 1, Queue: 4})
	for _, n := range []int{16, 33, 48, maxExecLinear + 32} {
		resp := postJSON(t, base+"/v1/jobs", Spec{Type: "execute", Kernel: "dot32", N: n})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("dot32 n=%d: status %d, want 400", n, resp.StatusCode)
		}
		resp.Body.Close()
	}
	rec := submitJob(t, base, Spec{Type: "execute", Kernel: "dot32", N: 96})
	if rec := waitTerminal(t, base, rec.ID); rec.State != StateDone {
		t.Fatalf("dot32 n=96 ended %s: %s", rec.State, rec.Error)
	}
}

// TestStageAndTenants stages on two machines under two tenants and
// checks the synchronous stage path plus tenant accounting.
func TestStageAndTenants(t *testing.T) {
	_, base := testServer(t, Config{Workers: 1, Queue: 4})

	var a StageResult
	resp := postJSON(t, base+"/v1/stage", Spec{Kernel: "saxpy", Tenant: "alice"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stage: status %d", resp.StatusCode)
	}
	decodeInto(t, resp, &a)
	if a.Hash == "" || a.SourceBytes == 0 || a.Machine != "Haswell" {
		t.Fatalf("stage result incomplete: %+v", a)
	}

	var b StageResult
	resp = postJSON(t, base+"/v1/stage", Spec{Kernel: "saxpy", Tenant: "bob", Machine: "SkylakeX"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stage on SkylakeX: status %d", resp.StatusCode)
	}
	decodeInto(t, resp, &b)
	if b.Machine != "SkylakeX" {
		t.Fatalf("stage ran on %q, want SkylakeX", b.Machine)
	}

	// Staging a wide kernel on a machine without its ISA must fail.
	resp = postJSON(t, base+"/v1/stage", Spec{Kernel: "dot512", Machine: "Nehalem"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dot512 on Nehalem: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	var tenants []TenantInfo
	tresp, err := http.Get(base + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, tresp, &tenants)
	names := make([]string, len(tenants))
	for i, ti := range tenants {
		names[i] = ti.Name
	}
	// The failed dot512 stage above ran under the default tenant.
	if fmt.Sprint(names) != "[alice bob default]" {
		t.Fatalf("tenants %v, want [alice bob default]", names)
	}
}

// TestWarmStartServesCompileFree restarts the daemon over a warm
// compile-cache directory and requires the second process to serve the
// same requests with zero graph compiles.
func TestWarmStartServesCompileFree(t *testing.T) {
	cache := t.TempDir()
	run := func() string {
		_, base := testServer(t, Config{Workers: 1, Queue: 4, CacheDir: cache})
		resp := postJSON(t, base+"/v1/stage", Spec{Kernel: "saxpy"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stage: status %d", resp.StatusCode)
		}
		resp.Body.Close()
		rec := submitJob(t, base, Spec{Type: "execute", Kernel: "saxpy", N: 64})
		if final := waitTerminal(t, base, rec.ID); final.State != StateDone {
			t.Fatalf("job ended %s: %s", final.State, final.Error)
		}
		body, _ := fetchResult(t, base, rec.ID)
		return body
	}

	cold := run()
	core.ResetFullCompiles()
	warm := run()
	if got := core.FullCompiles(); got != 0 {
		t.Fatalf("warm daemon performed %d graph compiles, want 0", got)
	}
	if warm != cold {
		t.Fatal("warm result differs from cold result")
	}
}

// TestWarmStartNativeZeroBuilds proves a warm native-backend daemon
// invokes `go build` zero times: the warm server's backend points its
// GoTool at a nonexistent binary, so any attempted build would fail
// the request loudly. Skipped where the native backend cannot load
// plugins (e.g. race-instrumented test builds).
func TestWarmStartNativeZeroBuilds(t *testing.T) {
	if err := native.New().Available(); err != nil {
		t.Skipf("native backend unavailable: %v", err)
	}
	cache := t.TempDir()

	cold, err := New(Config{Workers: 1, Queue: 4, CacheDir: cache, Backend: "native"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cold.Handler())
	rec := submitJob(t, ts.URL, Spec{Type: "execute", Kernel: "saxpy", N: 64})
	final := waitTerminal(t, ts.URL, rec.ID)
	if final.State != StateDone {
		t.Fatalf("cold job ended %s: %s", final.State, final.Error)
	}
	coldBody, _ := fetchResult(t, ts.URL, rec.ID)
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cold.Shutdown(ctx)

	warm, base := testServer(t, Config{Workers: 1, Queue: 4, CacheDir: cache, Backend: "native"})
	nb := native.New()
	nb.GoTool = filepath.Join(t.TempDir(), "no-such-go") // any build attempt now fails loudly
	warm.RT.Backend = nb
	core.ResetFullCompiles()

	rec = submitJob(t, base, Spec{Type: "execute", Kernel: "saxpy", N: 64})
	final = waitTerminal(t, base, rec.ID)
	if final.State != StateDone {
		t.Fatalf("warm native job ended %s: %s", final.State, final.Error)
	}
	warmBody, _ := fetchResult(t, base, rec.ID)
	if warmBody != coldBody {
		t.Fatal("warm native result differs from cold")
	}
	if got := core.FullCompiles(); got != 0 {
		t.Fatalf("warm native daemon performed %d graph compiles, want 0", got)
	}
	if builds := nb.Counters()["build"]; builds != 0 {
		t.Fatalf("warm native daemon ran %d plugin builds, want 0", builds)
	}
}

// TestHealthzAndMetrics sanity-checks the observability endpoints:
// /healthz is liveness only, every number is on /metrics.
func TestHealthzAndMetrics(t *testing.T) {
	_, base := testServer(t, Config{Workers: 2, Queue: 8})

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	decodeInto(t, resp, &body)
	if len(body) != 3 || body["status"] != "ok" || body["machine"] != "Haswell" || body["backend"] != "vm" {
		t.Fatalf("healthz: %v, want exactly status, machine and backend", body)
	}

	rec := submitJob(t, base, Spec{Type: "execute", Kernel: "dot32", N: 64})
	if final := waitTerminal(t, base, rec.ID); final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	decodeInto(t, mresp, &m)
	if m.Counters["http.jobs.submit.requests"] == 0 {
		t.Fatalf("submit requests not counted: %v", m.Counters)
	}
	if m.Counters["http.jobs.submit.status.2xx"] == 0 {
		t.Fatal("submit 2xx not counted")
	}
	if m.Gauges["server.workers"] != 2 || m.Gauges["server.queue.capacity"] != 8 {
		t.Fatalf("server gauges: %v", m.Gauges)
	}
	if m.Gauges["server.jobs.done"] == 0 {
		t.Fatal("done jobs gauge not published")
	}

	var kresp struct {
		Machine string       `json:"machine"`
		Kernels []kernelInfo `json:"kernels"`
	}
	k, err := http.Get(base + "/v1/kernels")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, k, &kresp)
	if len(kresp.Kernels) < 5 {
		t.Fatalf("kernel listing too short: %+v", kresp)
	}

	// Unknown job ids are a 404, not a 500.
	nf, err := http.Get(base + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", nf.StatusCode)
	}
}

// TestJobStateGaugesDrain: every job-state gauge is published on
// every scrape, so once the queue drains pending and running read 0
// instead of keeping their last nonzero value.
func TestJobStateGaugesDrain(t *testing.T) {
	s, base := testServer(t, Config{Workers: 1, Queue: 4})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.beforeJob = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	rec := submitJob(t, base, Spec{Type: "execute", Kernel: "saxpy", N: 64})
	<-entered // the worker holds the job before picking it up
	if _, g := metricsOf(t, base); g["server.jobs.pending"] != 1 {
		t.Fatalf("held job: server.jobs.pending = %d, want 1", g["server.jobs.pending"])
	}
	close(release)
	if final := waitTerminal(t, base, rec.ID); final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	_, g := metricsOf(t, base)
	for _, state := range states {
		if _, ok := g["server.jobs."+string(state)]; !ok {
			t.Errorf("server.jobs.%s not published", state)
		}
	}
	if g["server.jobs.pending"] != 0 || g["server.jobs.running"] != 0 || g["server.jobs.done"] != 1 {
		t.Fatalf("drained queue: pending %d, running %d, done %d; want 0, 0, 1",
			g["server.jobs.pending"], g["server.jobs.running"], g["server.jobs.done"])
	}
}

// TestConfigMachine boots the daemon on a non-default machine and
// checks it propagates to healthz, staging, and job execution; an
// unknown machine name must fail construction.
func TestConfigMachine(t *testing.T) {
	_, base := testServer(t, Config{Workers: 1, Queue: 4, Machine: "SkylakeX"})
	var h Healthz
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp, &h)
	if h.Machine != "SkylakeX" {
		t.Fatalf("daemon machine %q, want SkylakeX", h.Machine)
	}
	rec := submitJob(t, base, Spec{Type: "execute", Kernel: "saxpy", N: 32})
	if final := waitTerminal(t, base, rec.ID); final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	body, _ := fetchResult(t, base, rec.ID)
	var res ExecResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Machine != "SkylakeX" {
		t.Fatalf("job ran on %q, want SkylakeX", res.Machine)
	}

	if _, err := New(Config{Machine: "no-such-uarch"}); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

// TestBackendAutoKeepsPlanOff: "auto" is not a backend, so it cannot
// switch the planner on behind -plan off. The daemon reports it
// unavailable and serves on the vm with no planner attached.
func TestBackendAutoKeepsPlanOff(t *testing.T) {
	s, base := testServer(t, Config{Workers: 1, Queue: 4, Backend: "auto", Plan: "off"})
	if s.RT.Planner != nil {
		t.Fatal(`Backend "auto" attached a planner under Plan "off"`)
	}
	if got := s.RT.BackendName(); got != "vm" {
		t.Fatalf("serving on backend %q, want vm", got)
	}
	rec := submitJob(t, base, Spec{Type: "execute", Kernel: "saxpy", N: 64})
	if final := waitTerminal(t, base, rec.ID); final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
}

// TestNoChoiceJobsCarryNoPlan: with the planner on but no native
// plugin and no lanes, an execute job's kernel has one strategy, so
// the daemon plans nothing and the job record carries no plan. The
// kernel is one no test in this package builds natively: a plugin in
// the process memo would give it a native candidate.
func TestNoChoiceJobsCarryNoPlan(t *testing.T) {
	s, base := testServer(t, Config{Workers: 1, Queue: 4})
	if s.RT.Planner == nil {
		t.Fatal("planner off by default")
	}
	rec := submitJob(t, base, Spec{Type: "execute", Kernel: "mmm_naive", N: 16})
	final := waitTerminal(t, base, rec.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if len(final.Plan) != 0 {
		t.Fatalf("job record carries plans for a kernel without a choice: %+v", final.Plan)
	}
	if st := s.RT.Planner.Stats(); st["installs"] != 0 || st["probes"] != 0 {
		t.Fatalf("planner traffic for a kernel without a choice: %v", st)
	}
}

// TestDrainingRejectsSubmissions checks shutdown admission control.
func TestDrainingRejectsSubmissions(t *testing.T) {
	s, err := New(Config{Workers: 1, Queue: 4, Drain: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", Spec{Type: "execute", Kernel: "saxpy", N: 8})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server returned %d, want 503", resp.StatusCode)
	}
}
