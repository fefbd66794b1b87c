package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/plan"
)

// TestAutoPlanDifferential pins the planner's safety invariant: a
// runtime in auto mode — probing the serial vm and (when available)
// native and parallel strategies across calls — produces
// byte-identical results and identical dynamic op counts to the static
// default runtime. Figures derive from counts, so this is what keeps
// planner modes out of the figure bytes.
func TestAutoPlanDifferential(t *testing.T) {
	rtDef := DefaultRuntime()
	rtAuto := DefaultRuntime()
	rtAuto.EnableAutoPlanWith(plan.Config{ExploreAll: true, ProbeBudget: 1})
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
}

// TestAutoPlanWarmStart pins the persistence contract end to end
// through a real DiskCache: a cold process calibrates and writes
// plan-*.json files; a fresh runtime over the same directory loads
// them, runs zero probes, and leaves every plan file byte-identical.
// A version-2 plan left under the same key, one that chose the retired
// plain tier, must miss: the cold run recalibrates and overwrites it.
func TestAutoPlanWarmStart(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := DefaultRuntime()
	rt.Disk = d
	rt.EnableAutoPlan()
	k := stageDouble(rt)
	xs := make([]float32, 1024)
	key := plan.Key{Hash: ir.Hash(k.F), Arch: rt.Arch.Name, Bucket: plan.Bucket(int64(4 * len(xs)))}
	stale := fmt.Sprintf(`{"version":2,"hash":"%016x","arch":%q,"bucket":%d,"kernel":"double_all",`+
		`"candidates":[{"spec":{"backend":"vm","tier":"plain","lanes":1},"pred_ns":1,"meas_ns":1,"probes":2}],"chosen":0}`,
		key.Hash, key.Arch, key.Bucket)
	if err := d.StorePlan(key.ID(), []byte(stale)); err != nil {
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
		t.Fatalf("version-2 plan was not a miss: %v", st)
	}
	views := rt.Planner.Snapshot()
	if len(views) == 0 || !views[0].Calibrated {
		t.Fatalf("cold run did not calibrate: %+v", views)
	}
	if raw, ok := d.LoadPlan(key.ID()); !ok || strings.Contains(string(raw), `"tier"`) ||
		!strings.Contains(string(raw), fmt.Sprintf(`"version":%d`, plan.Version)) {
		t.Fatalf("recalibration did not overwrite the version-2 plan: %s", raw)
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

	rt2 := DefaultRuntime()
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
	rt := DefaultRuntime()
	rt.EnableAutoPlan()
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
