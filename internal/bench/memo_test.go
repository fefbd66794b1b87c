package bench

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/hotspot"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/vm"
)

// memoSuite is a small suite whose sweeps exercise the baseline count
// memo: three reps per point, and run-size caps low enough that the
// larger sizes extrapolate from a shared run size.
func memoSuite(workers int) *Suite {
	s := NewSuite()
	s.MaxRunLinear = 1 << 9
	s.MaxRunCubic = 16
	s.Reps = 3
	s.Workers = workers
	return s
}

var memoSizes = map[string][]int{
	"fig6a": {64, 256, 512, 1024, 2048},
	"fig6b": {8, 16, 32, 48},
	"fig7":  {128, 512, 1024, 4096},
}

// directCounts executes every staged Call and Java InvokeAt that a sweep
// of figure over sizes performs — every point, every rep — on fresh
// machines, without the harness or its memo, and sums their counts.
// Before each execution it counts the same call without executing
// (Kernel.CountValues, Method.CountAt) and requires the identical count
// map: the count-only evaluator's differential over every figure point
// and rep.
func directCounts(t *testing.T, s *Suite, figure string, sizes []int) vm.Counter {
	t.Helper()
	rt := core.DefaultRuntime()
	jvm := hotspot.NewVM(s.JVM.Arch)
	fs := rt.Arch.Features
	total := vm.Counter{}
	reps := func(m *vm.Machine, count func() error, run func() (vm.Value, error)) {
		for r := 0; r < s.Reps; r++ {
			m.Counts.Reset()
			if err := count(); err != nil {
				t.Fatalf("%s rep %d: count-only evaluation: %v", figure, r, err)
			}
			counted := m.Counts.Clone()
			m.Counts.Reset()
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(counted, m.Counts) {
				t.Fatalf("%s rep %d: counted %v, executed %v", figure, r, counted, m.Counts)
			}
			total.Merge(m.Counts)
		}
	}
	staged := func(kn *core.Kernel, args ...vm.Value) {
		reps(rt.Machine, func() error { return kn.CountValues(args...) },
			func() (vm.Value, error) { return kn.CallValues(args...) })
	}
	compile := func(k *dsl.Kernel, err error) *core.Kernel {
		if err == nil {
			var kn *core.Kernel
			if kn, err = rt.Compile(k); err == nil {
				return kn
			}
		}
		t.Fatal(err)
		return nil
	}
	java := func(f *ir.Func, err error, args ...vm.Value) {
		var m *hotspot.Method
		if err == nil {
			m, err = jvm.Load(f)
		}
		if err != nil {
			t.Fatal(err)
		}
		reps(jvm.Machine, func() error { return m.CountAt(hotspot.TierC2, args...) },
			func() (vm.Value, error) { return m.InvokeAt(hotspot.TierC2, args...) })
	}
	switch figure {
	case "fig6a":
		kn := compile(kernels.StagedSaxpy(fs), nil)
		for _, n := range sizes {
			runN := capSize(n, s.MaxRunLinear)
			a, b := vm.PinF32(randSlice(runN, 1)), vm.PinF32(randSlice(runN, 2))
			args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0), vm.F32Value(2.5), vm.IntValue(runN)}
			staged(kn, args...)
			java(kernels.JavaSaxpy(fs), nil, args...)
		}
	case "fig6b":
		kn := compile(kernels.StagedMMM(fs), nil)
		for _, n := range sizes {
			runN := capSize(n, s.MaxRunCubic)
			a := vm.PinF32(randSlice(runN*runN, 3))
			b := vm.PinF32(randSlice(runN*runN, 4))
			c := vm.PinF32(make([]float32, runN*runN))
			args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0), vm.PtrValue(c, 0), vm.IntValue(runN)}
			staged(kn, args...)
			java(kernels.JavaMMMTriple(fs), nil, args...)
			java(kernels.JavaMMMBlocked(fs), nil, args...)
		}
	case "fig7":
		// Each series draws its quantization noise from its own RNG
		// across the sizes in order, as Fig7 does.
		for _, bits := range []int{32, 16, 8, 4} {
			rng := vm.NewXorshift(4321)
			for _, n := range sizes {
				f, err := kernels.JavaDot(bits, fs)
				runN := capSize(n, s.MaxRunLinear)
				java(f, err, javaDotArgs(bits, randSlice(runN, 7), randSlice(runN, 8), rng)...)
			}
		}
		for _, bits := range []int{32, 16, 8, 4} {
			kn := compile(kernels.StagedDot(bits, fs))
			rng := vm.NewXorshift(1234)
			for _, n := range sizes {
				runN := capSize(n, s.MaxRunLinear)
				staged(kn, dotArgs(bits, randSlice(runN, 7), randSlice(runN, 8), rng)...)
			}
		}
	}
	return total
}

// TestSweepCountsMatchDirectExecution: with the count memo reusing
// staged and baseline counts across reps and extrapolated points, every
// figure's SweepCounts still equal the sum of direct executions of
// every point and rep, at one and two sweep workers — and the memo did
// reuse on both legs.
func TestSweepCountsMatchDirectExecution(t *testing.T) {
	for _, figure := range FigureNames() {
		for _, workers := range []int{1, 2} {
			s := memoSuite(workers)
			if _, err := s.RunFigure(figure, memoSizes[figure]); err != nil {
				t.Fatal(err)
			}
			want := directCounts(t, s, figure, memoSizes[figure])
			if !reflect.DeepEqual(s.SweepCounts, want) {
				t.Fatalf("%s -j %d: SweepCounts differ from direct execution\nsweep:  %v\ndirect: %v",
					figure, workers, s.SweepCounts, want)
			}
			for leg, st := range map[string]memoStats{"staged": s.stagedMemo, "baseline": s.baselineMemo} {
				if st.hits == 0 || st.misses == 0 || st.bypassed != 0 {
					t.Errorf("%s -j %d: %s memo %+v, want hits and misses and no bypasses",
						figure, workers, leg, st)
				}
			}
		}
	}
}

// TestBaselineMemoBypassedUnderCacheSim: an attached cache simulator
// sees every access, so the memo steps aside and every rep executes.
func TestBaselineMemoBypassedUnderCacheSim(t *testing.T) {
	s := memoSuite(1)
	w := s.newWorker(0, newCountMemo())
	w.jvm.Machine.Cache = cachesim.NewHaswellHierarchy()
	m, err := w.method("java-saxpy", func() (*ir.Func, error) {
		return kernels.JavaSaxpy(s.RT.Arch.Features), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	jb := s.fig6aJobs([]int{64})[0]
	if _, err := w.measure(w.javaLeg(m, jb.args, jb.footprint), jb.n, jb.runN, kernels.SaxpyFlops); err != nil {
		t.Fatal(err)
	}
	if w.baseline != (memoStats{bypassed: int64(s.Reps)}) {
		t.Errorf("memo %+v, want %d bypassed executions", w.baseline, s.Reps)
	}
	if n := s.inputBuilds.Load(); n != 1 {
		t.Errorf("%d input builds, want 1 shared by every executed rep", n)
	}
}

// TestStagedMemoBypassedUnderCacheSim: the same holds for the staged
// leg when the worker runtime's machine carries a cache simulator.
func TestStagedMemoBypassedUnderCacheSim(t *testing.T) {
	s := memoSuite(1)
	w := s.newWorker(0, newCountMemo())
	w.rt.Machine.Cache = cachesim.NewHaswellHierarchy()
	kn, err := w.kernel("saxpy", func() (*dsl.Kernel, error) {
		return kernels.StagedSaxpy(s.RT.Arch.Features), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	jb := s.fig6aJobs([]int{64})[0]
	if _, err := w.measure(w.stagedLeg(kn, jb.args, jb.footprint), jb.n, jb.runN, kernels.SaxpyFlops); err != nil {
		t.Fatal(err)
	}
	if w.staged != (memoStats{bypassed: int64(s.Reps)}) {
		t.Errorf("memo %+v, want %d bypassed executions", w.staged, s.Reps)
	}
	if n := s.inputBuilds.Load(); n != 1 {
		t.Errorf("%d input builds, want 1 shared by every executed rep", n)
	}
}

// TestStagedMemoBypassedUnderAutoPlan: the planner calibrates from the
// calls it sees, so under auto-planning every staged rep executes —
// while the baseline leg, which the planner never routes, still reuses.
func TestStagedMemoBypassedUnderAutoPlan(t *testing.T) {
	s := memoSuite(2)
	s.RT.EnableAutoPlan()
	sizes := memoSizes["fig6a"]
	if _, err := s.RunFigure("fig6a", sizes); err != nil {
		t.Fatal(err)
	}
	if want := (memoStats{bypassed: int64(len(sizes) * s.Reps)}); s.stagedMemo != want {
		t.Errorf("staged memo %+v, want %+v", s.stagedMemo, want)
	}
	if s.baselineMemo.hits == 0 || s.baselineMemo.bypassed != 0 {
		t.Errorf("baseline memo %+v, want hits and no bypasses", s.baselineMemo)
	}
}

// TestSharedMemoExecutesEachKeyOnce: eight workers share the suite's
// memo, so each distinct (series, run size) is evaluated exactly once —
// the same number as a serial sweep — and every other rep reuses it;
// only the evaluations that executed call the kernel. The race
// detector runs this repeatedly (make race).
func TestSharedMemoExecutesEachKeyOnce(t *testing.T) {
	legs := map[string]int{"fig6a": 2, "fig6b": 3, "fig7": 8} // series per size
	for _, figure := range FigureNames() {
		s := memoSuite(8)
		reg := obs.NewRegistry()
		s.Attach(nil, reg)
		if _, err := s.RunFigure(figure, memoSizes[figure]); err != nil {
			t.Fatal(err)
		}
		runCap := s.MaxRunLinear
		if figure == "fig6b" {
			runCap = s.MaxRunCubic
		}
		runSizes := map[int]bool{}
		for _, n := range memoSizes[figure] {
			runSizes[capSize(n, runCap)] = true
		}
		keys := int64(len(runSizes) * legs[figure])
		execs := s.stagedMemo.misses + s.stagedMemo.bypassed + s.baselineMemo.misses + s.baselineMemo.bypassed
		reps := s.stagedMemo.hits + s.baselineMemo.hits + execs
		if execs != keys {
			t.Errorf("%s: %d executions (staged %+v, baseline %+v), want one per distinct key (%d)",
				figure, execs, s.stagedMemo, s.baselineMemo, keys)
		}
		if want := int64(len(memoSizes[figure]) * legs[figure] * s.Reps); reps != want {
			t.Errorf("%s: memo saw %d reps, want %d", figure, reps, want)
		}
		executed := s.stagedMemo.misses - s.stagedMemo.counted + s.stagedMemo.bypassed
		if calls := reg.Counter("ngen.kernel.call").Load(); calls != executed {
			t.Errorf("%s: %d staged calls executed, staged memo %+v", figure, calls, s.stagedMemo)
		}
	}
}

// TestFiguresMatchCommittedOutput: the full-axis figure tables, built
// with the memo in place, are still contained verbatim in the committed
// `ngen all` output.
func TestFiguresMatchCommittedOutput(t *testing.T) {
	ref, err := os.ReadFile("../../results/ngen_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite()
	s.Workers = 2
	for _, figure := range FigureNames() {
		text, err := s.RunFigure(figure, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(ref), text) {
			t.Errorf("%s table is not in results/ngen_all.txt:\n%s", figure, text)
		}
	}
}

// TestFig6bCountsWithoutExecuting: every fig6b memo miss — the staged
// kernel and both Java methods at the two run sizes — is counted
// without executing, so the sweep runs no kernel at all.
func TestFig6bCountsWithoutExecuting(t *testing.T) {
	s := memoSuite(2)
	reg := obs.NewRegistry()
	s.Attach(nil, reg)
	if _, err := s.RunFigure("fig6b", memoSizes["fig6b"]); err != nil {
		t.Fatal(err)
	}
	if s.stagedMemo.misses+s.baselineMemo.misses != 6 {
		t.Fatalf("staged memo %+v, baseline memo %+v: want 6 misses", s.stagedMemo, s.baselineMemo)
	}
	for leg, st := range map[string]memoStats{"staged": s.stagedMemo, "baseline": s.baselineMemo} {
		if st.counted != st.misses || st.bypassed != 0 {
			t.Errorf("%s memo %+v: want every miss counted, none executed", leg, st)
		}
	}
	if calls := reg.Counter("ngen.kernel.call").Load(); calls != 0 {
		t.Errorf("%d staged kernel calls executed, want 0", calls)
	}
	if n := s.inputBuilds.Load(); n != 0 {
		t.Errorf("%d input sets built, want 0", n)
	}
}

// TestFig7CountsWithoutBuildingInputs: every miss of a full fig7 sweep
// — the four staged kernels and the four Java methods at each run size
// — is counted on its argument shape, so the sweep runs no kernel and
// never builds, let alone quantizes, a single input series.
func TestFig7CountsWithoutBuildingInputs(t *testing.T) {
	s := NewSuite()
	s.Workers = 2
	reg := obs.NewRegistry()
	s.Attach(nil, reg)
	if _, err := s.RunFigure("fig7", nil); err != nil {
		t.Fatal(err)
	}
	for leg, st := range map[string]memoStats{"staged": s.stagedMemo, "baseline": s.baselineMemo} {
		if st.misses == 0 || st.counted != st.misses || st.bypassed != 0 {
			t.Errorf("%s memo %+v: want every miss counted, none executed", leg, st)
		}
	}
	if calls := reg.Counter("ngen.kernel.call").Load(); calls != 0 {
		t.Errorf("%d staged kernel calls executed, want 0", calls)
	}
	if n := s.inputBuilds.Load(); n != 0 {
		t.Errorf("%d input series built, want 0", n)
	}
}

// TestSecondSweepReusesSuiteMemo: the memo lives on the suite, so a
// second fig6b sweep — as `ngen all` runs inside speedups — evaluates
// nothing: no misses, the same table, and the same counts again.
func TestSecondSweepReusesSuiteMemo(t *testing.T) {
	s := memoSuite(2)
	sizes := memoSizes["fig6b"]
	first, err := s.RunFigure("fig6b", sizes)
	if err != nil {
		t.Fatal(err)
	}
	counts, staged, baseline := s.SweepCounts.Clone(), s.stagedMemo, s.baselineMemo
	second, err := s.RunFigure("fig6b", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Errorf("second sweep's table differs:\n%s\nvs\n%s", second, first)
	}
	if s.stagedMemo.misses != staged.misses || s.baselineMemo.misses != baseline.misses {
		t.Errorf("second sweep missed: staged %+v → %+v, baseline %+v → %+v",
			staged, s.stagedMemo, baseline, s.baselineMemo)
	}
	twice := counts.Clone()
	twice.Merge(counts)
	if !reflect.DeepEqual(s.SweepCounts, twice) {
		t.Errorf("second sweep added different counts:\nafter one: %v\nafter two: %v", counts, s.SweepCounts)
	}
}
