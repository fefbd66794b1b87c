package bench

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

var (
	workersAttr = regexp.MustCompile(`workers=\d+`)
	memoAttr    = regexp.MustCompile(`memo=\w+( eval=\w+)?`)
)

// tracedRun measures a small Fig6a sweep with observability attached
// and returns the structural skeleton, the registry snapshot, the
// merged sweep counters, and how many call:<kernel> spans the trace
// holds.
func tracedRun(t *testing.T, workers int) (string, obs.Snapshot, map[string]int64, int64) {
	t.Helper()
	s := quickSuite()
	s.Workers = workers
	tr := obs.New()
	reg := obs.NewRegistry()
	s.Attach(tr, reg)
	if _, err := s.Fig6a([]int{64, 256, 1024, 4096}); err != nil {
		t.Fatal(err)
	}
	s.PublishMetrics()
	// Three parts of the tree depend on scheduling (see forEachPoint):
	// the once-per-worker compile and method-load spans land under
	// whichever point each worker measured first, and which rep of a
	// shared count key is evaluated — carrying memo=miss, its eval
	// attribute and, when executed, the kernel's call span — and which
	// ones reuse it depends on which worker reached the key first. The
	// sweep span's workers attribute reports the actual worker count.
	// Normalize all of these; everything else must be identical.
	skel := tr.Skeleton(func(name string) bool {
		return name == "ngen.compile" || name == "hotspot.load" || strings.HasPrefix(name, "call:")
	})
	skel = workersAttr.ReplaceAllString(skel, "workers=W")
	skel = memoAttr.ReplaceAllString(skel, "memo=M")
	counts := map[string]int64{}
	for k, v := range s.SweepCounts {
		counts[k] = v
	}
	var calls int64
	for _, st := range tr.Totals() {
		if strings.HasPrefix(st.Name, "call:") {
			calls += st.Count
		}
	}
	return skel, reg.Snapshot(), counts, calls
}

// TestTraceDeterminismAcrossWorkers: the span tree (modulo the
// scheduling-dependent parts above) and every execution-derived counter
// total are identical between -j 1 and -j 8 runs, and a kernel call
// span appears exactly when a staged rep executes — memo misses counted
// without executing open none.
func TestTraceDeterminismAcrossWorkers(t *testing.T) {
	skel1, snap1, counts1, calls1 := tracedRun(t, 1)
	skel8, snap8, counts8, calls8 := tracedRun(t, 8)

	if skel1 != skel8 {
		t.Fatalf("span tree differs between -j 1 and -j 8:\n-j1:\n%s\n-j8:\n%s", skel1, skel8)
	}
	if !strings.Contains(skel1, "sweep:fig6a") || !strings.Contains(skel1, "point#3 [n=4096]") {
		t.Fatalf("skeleton missing sweep structure:\n%s", skel1)
	}
	if !strings.Contains(skel1, "staged.invoke [memo=M]") {
		t.Fatalf("staged invoke spans missing:\n%s", skel1)
	}
	if !strings.Contains(skel1, "hotspot.invoke [tier=C2 memo=M]") {
		t.Fatalf("baseline invoke spans missing:\n%s", skel1)
	}
	if !strings.Contains(skel1, "machine.estimate") {
		t.Fatalf("model estimate spans missing:\n%s", skel1)
	}
	executed := func(snap obs.Snapshot) int64 {
		g := snap.Gauges
		return g["bench.staged.memo.misses"] - g["bench.staged.memo.counted"] + g["bench.staged.memo.bypassed"]
	}
	for j, c := range map[int][3]int64{
		1: {calls1, executed(snap1), snap1.Gauges["bench.staged.memo.misses"]},
		8: {calls8, executed(snap8), snap8.Gauges["bench.staged.memo.misses"]},
	} {
		if c[0] != c[1] || c[2] == 0 {
			t.Errorf("-j %d: %d call spans, %d staged executions, %d staged misses (want equal, misses nonzero)",
				j, c[0], c[1], c[2])
		}
	}

	if !reflect.DeepEqual(counts1, counts8) {
		t.Fatalf("merged sweep counters differ:\n-j1: %v\n-j8: %v", counts1, counts8)
	}

	// Execution-derived metric counters are worker-count invariant; the
	// compile-cache hit/miss gauges are not (each worker compiles once
	// against the shared artifact cache — documented behaviour), and
	// hits+misses must still equal total compile calls.
	if a, b := snap1.Counters["bench.points"], snap8.Counters["bench.points"]; a != b || a == 0 {
		t.Errorf("counter bench.points: -j1=%d -j8=%d (want equal, nonzero)", a, b)
	}
	if a, b := snap1.Counters["ngen.kernel.call"], snap8.Counters["ngen.kernel.call"]; a != b || a != executed(snap1) {
		t.Errorf("counter ngen.kernel.call: -j1=%d -j8=%d (want equal to the %d staged executions)",
			a, b, executed(snap1))
	}
	c1 := snap1.Gauges["ngen.cache.hits"] + snap1.Gauges["ngen.cache.misses"]
	c8 := snap8.Gauges["ngen.cache.hits"] + snap8.Gauges["ngen.cache.misses"]
	if c1 < 1 || c8 < c1 {
		t.Errorf("compile calls: -j1=%d -j8=%d (want ≥1, per-worker ≥ serial)", c1, c8)
	}

	// The memo is shared by the sweep's workers, so its outcome totals
	// do not depend on the worker count either.
	for _, prefix := range []string{"bench.staged.memo.", "bench.baseline.memo."} {
		for _, stat := range []string{"hits", "misses", "counted", "bypassed"} {
			name := prefix + stat
			if a, b := snap1.Gauges[name], snap8.Gauges[name]; a != b {
				t.Errorf("gauge %s: -j1=%d -j8=%d (want equal)", name, a, b)
			}
		}
	}

	// The merged vm.op.* gauges must mirror the sweep counters exactly
	// at either worker count.
	for op, n := range counts1 {
		if got := snap8.Gauges["vm.op."+op]; got != n {
			t.Errorf("vm.op.%s gauge = %d, want %d", op, got, n)
		}
	}
}

// TestSweepWorkerUtilizationMetrics: the registry sees worker counts
// and per-worker point distribution after a parallel sweep.
func TestSweepWorkerUtilizationMetrics(t *testing.T) {
	s := quickSuite()
	s.Workers = 2
	reg := obs.NewRegistry()
	s.Attach(nil, reg)
	if _, err := s.Fig6a([]int{64, 128, 256, 512}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("bench.sweep.workers").Load(); got != 2 {
		t.Errorf("bench.sweep.workers = %d, want 2", got)
	}
	h := reg.Histogram("bench.worker.points").Snapshot()
	if h.Count != 2 || h.Sum != 4 {
		t.Errorf("worker points histogram: %+v, want 2 workers covering 4 points", h)
	}
}

// TestSweepDisabledObsUnchanged: without Attach, sweeps still run and
// no tracer/registry state appears (the nil fast path).
func TestSweepDisabledObsUnchanged(t *testing.T) {
	s := quickSuite()
	s.Workers = 4
	if _, err := s.Fig6a([]int{64, 128}); err != nil {
		t.Fatal(err)
	}
	s.PublishMetrics() // no registry: must be a no-op, not a panic
	if s.Tracer != nil || s.Metrics != nil {
		t.Fatal("suite must stay unobserved by default")
	}
}
