package core

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestPipelineSpans: one traced Compile records the stage tree of the
// paper's Figure 3 pipeline with kernel/arch/cache attributes, a repeat
// compile records a cache hit with no rebuild stages, and calls record
// under the kernel's span name.
func TestPipelineSpans(t *testing.T) {
	rt := DefaultRuntime()
	rt.Tracer = obs.New()
	rt.Metrics = obs.NewRegistry()

	kn, err := rt.Compile(stageSumSquares(rt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Compile(stageSumSquares(rt)); err != nil {
		t.Fatal(err)
	}
	if _, err := kn.Call(8); err != nil {
		t.Fatal(err)
	}

	skel := rt.Tracer.Skeleton(nil)
	wantLines := []string{
		"cache=miss",
		"  cgen.emit",
		"  kernelc.compile",
		"  toolchain.link",
		"cache=hit",
		"call:sum_squares",
	}
	for _, w := range wantLines {
		if !strings.Contains(skel, w) {
			t.Errorf("trace skeleton missing %q:\n%s", w, skel)
		}
	}
	if !strings.Contains(skel, "kernel=sum_squares") || !strings.Contains(skel, "hash=") {
		t.Errorf("compile span must carry kernel and graph-hash attrs:\n%s", skel)
	}
	// The cache hit must not re-run the build stages.
	if n := strings.Count(skel, "cgen.emit"); n != 1 {
		t.Errorf("expected 1 cgen.emit span (hit skips rebuild), got %d", n)
	}

	if calls := rt.Metrics.Counter("ngen.kernel.call").Load(); calls != 1 {
		t.Errorf("metrics kernel.call = %d, want 1", calls)
	}

	rt.PublishMetrics(rt.Metrics, "")
	snap := rt.Metrics.Snapshot()
	if snap.Gauges["ngen.cache.hits"] != 1 || snap.Gauges["ngen.cache.misses"] != 1 ||
		snap.Gauges["ngen.cache.entries"] != 1 {
		t.Errorf("PublishMetrics cache gauges: %v", snap.Gauges)
	}
	if snap.Gauges["vm.op."+JNICall] != 1 {
		t.Errorf("PublishMetrics must mirror machine counts: %v", snap.Gauges)
	}
	if snap.Gauges["kernelc.pool.gets"] < 1 {
		t.Errorf("PublishMetrics must report frame-pool traffic: %v", snap.Gauges)
	}
	// The same rows publish under a prefix into any registry (ngend
	// passes "server.").
	other := obs.NewRegistry()
	rt.PublishMetrics(other, "server.")
	if g := other.Snapshot().Gauges; g["server.ngen.cache.hits"] != 1 || g["ngen.cache.hits"] != 0 {
		t.Errorf("prefixed publish: %v", g)
	}
}

// TestSpanParenting: with Runtime.Span set (as the sweep harness does),
// pipeline spans nest under it instead of the tracer root.
func TestSpanParenting(t *testing.T) {
	rt := DefaultRuntime()
	rt.Tracer = obs.New()
	point := rt.Tracer.Start("point#0")
	rt.Span = point
	kn, err := rt.Compile(stageSumSquares(rt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kn.Call(4); err != nil {
		t.Fatal(err)
	}
	point.End()
	rt.Span = nil

	roots := rt.Tracer.Roots()
	if len(roots) != 1 {
		t.Fatalf("all spans must nest under the point span, got %d roots", len(roots))
	}
	var names []string
	for _, c := range roots[0].Children {
		names = append(names, c.Name)
	}
	got := strings.Join(names, ",")
	if got != "ngen.compile,call:sum_squares" {
		t.Fatalf("point children = %q", got)
	}
}

// TestCallDisabledObsAllocsNothing is the benchmark-guarded contract
// from the issue: with observability off (the default), the
// instrumented Kernel.Call hot path adds zero allocations.
func TestCallDisabledObsAllocsNothing(t *testing.T) {
	rt := DefaultRuntime()
	kn, err := rt.Compile(stageSumSquares(rt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kn.Call(16); err != nil { // warm the conversion scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := kn.Call(16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Call with obs disabled allocated %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkCallDisabledObs keeps the 0 allocs/op figure visible in the
// benchmark suite (-benchmem).
func BenchmarkCallDisabledObs(b *testing.B) {
	rt := DefaultRuntime()
	kn, err := rt.Compile(stageSumSquares(rt))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kn.Call(16); err != nil {
			b.Fatal(err)
		}
	}
}
