package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	_ "repro/internal/backend/native" // the planner's native candidate
	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/kernelc"
	"repro/internal/plan"
	"repro/internal/vm"
)

// plannedRuntime is a planned runtime with a choice for stageDouble:
// two lanes on its loop with a parallel plan besides serial vm.
func plannedRuntime() *Runtime {
	rt := DefaultRuntime()
	rt.Machine.Workers = 2
	rt.EnableAutoPlan()
	return rt
}

// TestAutoPlanDifferential pins the planner's safety invariant: a
// planned runtime — probing the serial vm and (when available) native
// and parallel strategies across calls — produces byte-identical
// results and identical dynamic op counts to the static default
// runtime. Figures derive from counts, so this is what keeps planner
// modes out of the figure bytes.
func TestAutoPlanDifferential(t *testing.T) {
	rtDef := DefaultRuntime()
	rtAuto := plannedRuntime()
	knDef, err := rtDef.Compile(stageDouble(rtDef))
	if err != nil {
		t.Fatal(err)
	}
	knAuto, err := rtAuto.Compile(stageDouble(rtAuto))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{8, 64, 1024} {
		for rep := 0; rep < 6; rep++ {
			xs := make([]float32, n)
			ys := make([]float32, n)
			for i := range xs {
				xs[i] = float32(i%37) * 0.5
				ys[i] = xs[i]
			}
			if _, err := knDef.Call(xs, n); err != nil {
				t.Fatal(err)
			}
			if _, err := knAuto.Call(ys, n); err != nil {
				t.Fatal(err)
			}
			for i := range xs {
				if xs[i] != ys[i] {
					t.Fatalf("n=%d rep=%d: auto diverged at [%d]: %v vs %v", n, rep, i, ys[i], xs[i])
				}
			}
		}
	}
	def, auto := rtDef.Machine.Counts, rtAuto.Machine.Counts
	if len(def) != len(auto) {
		t.Fatalf("op-count key sets differ: %d vs %d", len(def), len(auto))
	}
	for op, n := range def {
		if auto[op] != n {
			t.Errorf("count[%s]: auto %d, static %d", op, auto[op], n)
		}
	}
	st := rtAuto.Planner.Stats()
	if st["installs"] == 0 || st["calibrated"] == 0 {
		t.Fatalf("planner never calibrated: %v", st)
	}
	for _, v := range rtAuto.Planner.Snapshot() {
		lanes := false
		for _, c := range v.Candidates {
			lanes = lanes || c.Spec.Lanes == 2
			if c.Probes == 0 {
				t.Errorf("bucket %d: candidate %s never probed", v.Bucket, c.Spec)
			}
		}
		if !lanes {
			t.Errorf("bucket %d: no vm/2 candidate in %+v", v.Bucket, v.Candidates)
		}
	}
}

// TestAutoPlanSkipsKernelsWithoutChoice: on a planned DefaultRuntime
// (no lanes, no native plugin on hand) vm/1 is the only strategy, so
// the kernel runs unplanned — no install, no decision, no plan file.
func TestAutoPlanSkipsKernelsWithoutChoice(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := DefaultRuntime()
	rt.Disk = d
	rt.EnableAutoPlan()
	kn, err := rt.Compile(stageDouble(rt))
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, 256)
	for i := 0; i < 8; i++ {
		if _, err := kn.Call(xs, len(xs)); err != nil {
			t.Fatal(err)
		}
	}
	if st := rt.Planner.Stats(); st["installs"] != 0 || st["decisions"] != 0 || st["probes"] != 0 {
		t.Fatalf("a kernel without a choice was planned: %v", st)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "plan-*.json")); len(files) != 0 {
		t.Fatalf("plan files written for a kernel without a choice: %v", files)
	}
}

// TestPlannedReadsTheCompiledVerdict: without a native executable on
// hand, a kernel is planned exactly when the runtime has a Planner and
// lanes and its compiled program has a parallel plan. The plain tier
// never shards, so it offers no lanes.
func TestPlannedReadsTheCompiledVerdict(t *testing.T) {
	for _, c := range []struct {
		tier    kernelc.Tier
		workers int
		want    bool
	}{
		{kernelc.TierOpt, 2, true},
		{kernelc.TierOpt, 1, false},
		{kernelc.TierPlain, 2, false},
	} {
		rt := DefaultRuntime()
		rt.Opt = c.tier
		rt.Machine.Workers = c.workers
		kn, err := rt.Compile(stageDouble(rt))
		if err != nil {
			t.Fatal(err)
		}
		if kn.Planned() {
			t.Fatalf("%v/%d: planned without a Planner", c.tier, c.workers)
		}
		rt.EnableAutoPlan()
		if kn.art.strategies(rt).native != nil {
			t.Skip("a native executable is on hand: every kernel has a choice")
		}
		if kn.Planned() != c.want {
			t.Errorf("%v/%d: Planned() = %v, want %v", c.tier, c.workers, kn.Planned(), c.want)
		}
	}
}

// TestAutoPlanWarmStart pins the persistence contract end to end
// through a real DiskCache: a cold process calibrates and writes
// plan-*.json files; a fresh runtime over the same directory loads
// them, runs zero probes, and leaves every plan file byte-identical.
// Stale plans left under the same key must miss, so the cold run
// recalibrates and overwrites them: a version-2 plan that chose the
// retired plain tier, and a version-3 plan with an unprobed pruned row.
func TestAutoPlanWarmStart(t *testing.T) {
	xs := make([]float32, 1024)
	stales := []struct{ name, body string }{
		{"version-2", `{"version":2,"hash":"%016x","arch":%q,"bucket":%d,"kernel":"double_all",` +
			`"candidates":[{"spec":{"backend":"vm","tier":"plain","lanes":1},"pred_ns":1,"meas_ns":1,"probes":2}],"chosen":0}`},
		{"version-3", `{"version":3,"hash":"%016x","arch":%q,"bucket":%d,"kernel":"double_all",` +
			`"candidates":[{"spec":{"backend":"vm","lanes":1},"pred_ns":1,"meas_ns":1,"probes":2},` +
			`{"spec":{"backend":"vm","lanes":2},"pred_ns":9,"meas_ns":0,"probes":0,"pruned":true}],"chosen":0}`},
	}
	var dir string
	var d *DiskCache
	for _, stale := range stales {
		dir = t.TempDir()
		var err error
		if d, err = OpenDiskCache(dir, 0); err != nil {
			t.Fatal(err)
		}
		rt := plannedRuntime()
		rt.Disk = d
		rt.EnableAutoPlan()
		k := stageDouble(rt)
		key := plan.Key{Hash: ir.Hash(k.F), Arch: rt.Arch.Name, Bucket: plan.Bucket(int64(4 * len(xs)))}
		body := fmt.Sprintf(stale.body, key.Hash, key.Arch, key.Bucket)
		if err := d.StorePlan(key.ID(), []byte(body)); err != nil {
			t.Fatal(err)
		}
		kn, err := rt.Compile(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if _, err := kn.Call(xs, len(xs)); err != nil {
				t.Fatal(err)
			}
		}
		if st := rt.Planner.Stats(); st["loads"] != 0 || st["installs"] != 1 || st["probes"] == 0 {
			t.Fatalf("%s plan was not a miss: %v", stale.name, st)
		}
		views := rt.Planner.Snapshot()
		if len(views) == 0 || !views[0].Calibrated {
			t.Fatalf("cold run did not calibrate: %+v", views)
		}
		if raw, ok := d.LoadPlan(key.ID()); !ok || strings.Contains(string(raw), `"tier"`) ||
			strings.Contains(string(raw), `"pruned"`) ||
			!strings.Contains(string(raw), fmt.Sprintf(`"version":%d`, plan.Version)) {
			t.Fatalf("recalibration did not overwrite the %s plan: %s", stale.name, raw)
		}
	}
	planFiles, _ := filepath.Glob(filepath.Join(dir, "plan-*.json"))
	if len(planFiles) == 0 {
		t.Fatal("no plan files persisted")
	}
	frozen := map[string][]byte{}
	for _, p := range planFiles {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		frozen[p] = raw
	}

	rt2 := plannedRuntime()
	rt2.Disk = d
	rt2.EnableAutoPlan()
	kn2, err := rt2.Compile(stageDouble(rt2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := kn2.Call(xs, len(xs)); err != nil {
			t.Fatal(err)
		}
	}
	st := rt2.Planner.Stats()
	if st["loads"] != 1 || st["probes"] != 0 || st["installs"] != 0 {
		t.Fatalf("warm run explored: %v", st)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "plan-*.json"))
	if len(after) != len(planFiles) {
		t.Fatalf("warm run changed the plan file set: %d vs %d", len(after), len(planFiles))
	}
	for _, p := range after {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(frozen[p]) {
			t.Fatalf("warm run rewrote %s", p)
		}
	}
}

// TestAutoPlanForksShareCalibration: a forked runtime (the bench
// worker/tenant pattern) decides from the parent's calibrated plans
// without re-exploring.
func TestAutoPlanForksShareCalibration(t *testing.T) {
	rt := plannedRuntime()
	kn, err := rt.Compile(stageDouble(rt))
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, 256)
	for i := 0; i < 12; i++ {
		if _, err := kn.Call(xs, len(xs)); err != nil {
			t.Fatal(err)
		}
	}
	if v := rt.Planner.Snapshot(); len(v) == 0 || !v[0].Calibrated {
		t.Fatal("parent never calibrated")
	}
	probesBefore := rt.Planner.Stats()["probes"]
	f := rt.Fork()
	knF, err := f.Compile(stageDouble(f))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := knF.Call(xs, len(xs)); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Planner.Stats()["probes"]; got != probesBefore {
		t.Fatalf("fork re-explored: probes %d → %d", probesBefore, got)
	}
}

// countingExec counts the runs it forwards to the wrapped executable.
type countingExec struct {
	backend.Executable
	runs atomic.Int64
}

func (e *countingExec) Run(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	e.runs.Add(1)
	return e.Executable.Run(m, args...)
}

// TestSharedCacheStaticAndPlanned: a static and a planned runtime
// sharing one compile cache compile each kernel once and hold one
// artifact. The planner's native candidate lives apart from the
// backend executable, so the static runtime never runs it, even with
// the plugin in the process memo. The kernel is private to this test
// so its plugin cannot give other tests' kernels a native candidate.
func TestSharedCacheStaticAndPlanned(t *testing.T) {
	stage := func(rt *Runtime) *dsl.Kernel {
		k := rt.NewKernel("triple_all_shared")
		a := dsl.Mutable(k, k.ParamF32Ptr())
		n := k.ParamInt()
		three := k.MM256Set1Ps(k.ConstF32(3))
		k.For(k.ConstInt(0), n, 8, func(i dsl.Int) {
			k.MM256StoreuPs(a, i, k.MM256MulPs(k.MM256LoaduPs(a, i), three))
		})
		return k
	}
	nat := DefaultRuntime()
	if err := nat.UseBackend("native"); err != nil {
		t.Skipf("native backend unavailable on this host: %v", err)
	}
	if _, err := nat.Compile(stage(nat)); err != nil {
		t.Fatal(err)
	}

	static := DefaultRuntime()
	planned := DefaultRuntime()
	planned.Cache = static.Cache
	planned.EnableAutoPlan()
	before := FullCompiles()
	knS, err := static.Compile(stage(static))
	if err != nil {
		t.Fatal(err)
	}
	knP, err := planned.Compile(stage(planned))
	if err != nil {
		t.Fatal(err)
	}
	if got := FullCompiles() - before; got != 1 {
		t.Fatalf("shared cache ran %d full compiles, want 1", got)
	}
	if knS.art != knP.art || static.Cache.Stats().Entries != 1 {
		t.Fatalf("static and planned runtimes hold separate artifacts (%d entries)",
			static.Cache.Stats().Entries)
	}
	c := knP.art.strategies(planned)
	if c.native == nil {
		t.Fatal("no native candidate with the plugin in the process memo")
	}
	spy := &countingExec{Executable: c.native}
	c.native = spy

	xs := make([]float32, 256)
	callN := func(kn *Kernel, n int) {
		for i := 0; i < n; i++ {
			if _, err := kn.Call(xs, len(xs)); err != nil {
				t.Fatal(err)
			}
		}
	}
	callN(knS, 4)
	if n := spy.runs.Load(); n != 0 {
		t.Fatalf("static runtime ran the planner's native candidate %d times", n)
	}
	callN(knP, 8)
	probed := spy.runs.Load()
	if probed == 0 {
		t.Fatal("planned runtime never ran its native candidate")
	}
	callN(knS, 4)
	if n := spy.runs.Load(); n != probed {
		t.Fatalf("static runtime ran the planner's native candidate %d times", n-probed)
	}
}
