package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/cgen"
	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/irverify"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// kernelCell is one library kernel at three sizes whose working sets
// span L1 to DRAM. calls are fixed per size so that every commit runs
// the same work; each gives a cell of roughly 50 ms on the static
// runtime on a 2-vCPU x86-64 container.
type kernelCell struct {
	name   string
	stage  func(isa.FeatureSet) (*dsl.Kernel, error)
	sizes  []int
	calls  []int
	square bool // arguments are n×n matrices
}

var kernelCells = []kernelCell{
	{name: "saxpy", sizes: []int{1 << 7, 1 << 13, 1 << 17}, calls: []int{7000, 80, 5},
		stage: func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedSaxpy(fs), nil }},
	{name: "mmm_blocked", sizes: []int{16, 32, 64}, calls: []int{120, 12, 2}, square: true,
		stage: func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedMMM(fs), nil }},
	{name: "dot8", sizes: []int{1 << 9, 1 << 15, 1 << 19}, calls: []int{2400, 30, 2},
		stage: func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedDot(8, fs) }},
	{name: "dot4", sizes: []int{1 << 9, 1 << 15, 1 << 19}, calls: []int{1400, 20, 1},
		stage: func(fs isa.FeatureSet) (*dsl.Kernel, error) { return kernels.StagedDot(4, fs) }},
}

// strategy is one way to execute library calls. The timed samples use
// the static runtime (vm-opt-1) and the planner (auto); the layer pass
// times all five.
type strategy struct {
	name      string
	configure func(rt *core.Runtime) error
}

var strategies = []strategy{
	{"vm-opt-1", func(rt *core.Runtime) error { return nil }},
	{"vm-plain-1", func(rt *core.Runtime) error { rt.Opt = kernelc.TierPlain; return nil }},
	{"vm-opt-2", func(rt *core.Runtime) error { rt.Machine.Workers = 2; return nil }},
	{"native-opt-1", func(rt *core.Runtime) error { return rt.UseBackend("native") }},
	{"auto", func(rt *core.Runtime) error { rt.EnableAutoPlan(); return nil }},
}

const staticStrategy, autoStrategy = 0, 4

// kernelSession calls the cell kernels through core.Kernel.CallValues
// on fresh runtimes. The native plugins are built once in set-up; later
// runtimes load them from the process memo.
type kernelSession struct {
	seed  uint64
	funcs []*ir.Func // the cell kernels' staged functions, for their parameter lists
}

func setupKernels(cfg config) (session, map[string]float64, error) {
	t0 := time.Now()
	irverify.SpecIndex()
	parts := map[string]float64{"xmlspec.index_s": time.Since(t0).Seconds()}
	t0 = time.Now()
	rt := core.DefaultRuntime()
	if err := rt.UseBackend("native"); err != nil {
		return nil, nil, fmt.Errorf("the native backend is required: %w", err)
	}
	kns, err := compileCells(rt)
	if err != nil {
		return nil, nil, err
	}
	s := &kernelSession{seed: cfg.seed}
	for i, kn := range kns {
		if why := kn.BackendFallback(); why != "" {
			return nil, nil, fmt.Errorf("%s did not build natively: %s", kernelCells[i].name, why)
		}
		s.funcs = append(s.funcs, kn.Func())
	}
	parts["backend.native.build_s"] = time.Since(t0).Seconds()
	return s, parts, nil
}

func (s *kernelSession) close() error { return nil }

func compileCells(rt *core.Runtime) ([]*core.Kernel, error) {
	out := make([]*core.Kernel, len(kernelCells))
	for i, c := range kernelCells {
		k, err := c.stage(rt.Arch.Features)
		if err != nil {
			return nil, err
		}
		if out[i], err = rt.Compile(k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// newRuntime builds a fresh runtime for one strategy and compiles the
// cell kernels on it.
func newRuntime(st strategy) (*core.Runtime, []*core.Kernel, error) {
	rt := core.DefaultRuntime()
	if err := st.configure(rt); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", st.name, err)
	}
	kns, err := compileCells(rt)
	return rt, kns, err
}

// cellArgs builds the seeded inputs of cell kernel i at size n.
func (s *kernelSession) cellArgs(i, n int) ([]vm.Value, []*vm.Buffer, error) {
	elems := n
	if kernelCells[i].square {
		elems = n * n
	}
	return kernels.BuildArgs(s.funcs[i], n, elems, s.seed)
}

// outcome is what one cell left behind: the last return value and the
// argument buffers.
type outcome struct {
	val  vm.Value
	bufs []*vm.Buffer
}

func (o outcome) equal(p outcome) bool {
	if !o.val.Equal(p.val) || len(o.bufs) != len(p.bufs) {
		return false
	}
	for i := range o.bufs {
		if !bytes.Equal(o.bufs[i].Data, p.bufs[i].Data) {
			return false
		}
	}
	return true
}

// leg runs the whole call plan once on a fresh runtime for st and
// returns its wall time (compile included, input building not) and
// what every cell left behind.
func (s *kernelSession) leg(st strategy, res *result) (float64, []outcome, error) {
	var args [][]vm.Value
	var outs []outcome
	for i, c := range kernelCells {
		for _, n := range c.sizes {
			a, bufs, err := s.cellArgs(i, n)
			if err != nil {
				return 0, nil, err
			}
			args = append(args, a)
			outs = append(outs, outcome{bufs: bufs})
		}
	}
	t0 := time.Now()
	_, kns, err := newRuntime(st)
	if err != nil {
		return 0, nil, err
	}
	k := 0
	for i, c := range kernelCells {
		for j, n := range c.sizes {
			for call := 0; call < c.calls[j]; call++ {
				res.Attempted++
				v, err := kns[i].CallValues(args[k]...)
				if err != nil {
					res.fail(1, "%s %s n=%d: %v", st.name, c.name, n, err)
					continue
				}
				outs[k].val = v
			}
			k++
		}
	}
	return millis(time.Since(t0)), outs, nil
}

func (s *kernelSession) run(cfg config) (*result, error) {
	res := &result{}
	var staticMs, autoMs []float64
	var first []outcome
	start := time.Now()
	for i := 0; another(start, i, cfg.seconds); i++ {
		// Every sample starts from a collected heap, after a
		// calibration burst.
		runtime.GC()
		res.calibrate(1)
		order := []int{staticStrategy, autoStrategy}
		if i%2 == 1 {
			order = []int{autoStrategy, staticStrategy}
		}
		ms := map[int]float64{}
		outs := map[int][]outcome{}
		for _, si := range order {
			var err error
			if ms[si], outs[si], err = s.leg(strategies[si], res); err != nil {
				return nil, err
			}
		}
		staticMs = append(staticMs, ms[staticStrategy])
		autoMs = append(autoMs, ms[autoStrategy])
		res.UnitsMs = append(res.UnitsMs, ms[staticStrategy]+ms[autoStrategy])
		if first == nil {
			first = outs[staticStrategy]
		}
		s.compare(res, fmt.Sprintf("sample %d static", i+1), first, outs[staticStrategy])
		s.compare(res, fmt.Sprintf("sample %d auto", i+1), first, outs[autoStrategy])
	}
	res.calibrate(1)
	if err := s.check(res); err != nil {
		return nil, err
	}
	if cfg.trace {
		layers, err := s.layers()
		if err != nil {
			return nil, err
		}
		layers["leg.static_ms"] = median(staticMs)
		layers["leg.auto_ms"] = median(autoMs)
		res.Layers = layers
	}
	return res, nil
}

// compare fails every cell whose outcome differs from the reference.
func (s *kernelSession) compare(res *result, what string, want, got []outcome) {
	k := 0
	for _, c := range kernelCells {
		for _, n := range c.sizes {
			if !want[k].equal(got[k]) {
				res.fail(1, "%s: %s n=%d differs from the first static leg", what, c.name, n)
			}
			k++
		}
	}
}

// check runs every cell once per strategy on fresh inputs; results and
// buffers must be bit-identical across strategies, and equal to the
// conformance suite's scalar oracle at each kernel's smallest size
// where the oracle's grammar covers the kernel.
func (s *kernelSession) check(res *result) error {
	var ref []outcome
	for si, st := range strategies {
		_, kns, err := newRuntime(st)
		if err != nil {
			return err
		}
		k := 0
		for i, c := range kernelCells {
			for _, n := range c.sizes {
				args, bufs, err := s.cellArgs(i, n)
				if err != nil {
					return err
				}
				res.Attempted++
				v, err := kns[i].CallValues(args...)
				if err != nil {
					res.fail(1, "check %s %s n=%d: %v", st.name, c.name, n, err)
				}
				got := outcome{v, bufs}
				if si == 0 {
					ref = append(ref, got)
				} else if !ref[k].equal(got) {
					res.fail(1, "check: %s %s n=%d differs from %s", st.name, c.name, n, strategies[0].name)
				}
				k++
			}
		}
	}
	k := 0
	for i, c := range kernelCells {
		args, bufs, err := s.cellArgs(i, c.sizes[0])
		if err != nil {
			return err
		}
		v, err := conform.RunOracle(s.funcs[i], args)
		switch {
		case err != nil && oracleGap(err):
			// Outside the oracle's grammar: the cross-strategy identity
			// above is the only check.
		case err != nil:
			res.Attempted++
			res.fail(1, "oracle %s n=%d: %v", c.name, c.sizes[0], err)
		default:
			res.Attempted++
			if !ref[k].equal(outcome{v, bufs}) {
				res.fail(1, "oracle: %s n=%d differs from %s", c.name, c.sizes[0], strategies[0].name)
			}
		}
		k += len(c.sizes)
	}
	return nil
}

// oracleGap reports whether err says the kernel uses an operation the
// conformance oracle does not evaluate.
func oracleGap(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "no semantic") || strings.Contains(msg, "unsupported")
}

// layerCalls is the fewest calls the layer pass times per cell, enough
// for the planner to finish calibrating and reach its steady state.
const layerCalls = 16

// layers is the kernels layer pass: a cold compile of the cell kernels
// split by pipeline stage, then every cell timed call by call under
// each strategy.
func (s *kernelSession) layers() (map[string]float64, error) {
	const reps = 5
	var verify, emit, lower, compile []float64
	arch := isa.Haswell
	for r := 0; r < reps; r++ {
		var tv, te, tl time.Duration
		for _, c := range kernelCells {
			k, err := c.stage(arch.Features)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			irverify.Verify(k.F, arch)
			t1 := time.Now()
			if _, err := cgen.Emit(k.F, cgen.Options{JNI: true, Package: "ch.ethz.acl.ngen", Class: "NKernel"}); err != nil {
				return nil, err
			}
			t2 := time.Now()
			if _, err := kernelc.CompileTier(k.F, kernelc.TierOpt); err != nil {
				return nil, err
			}
			tv, te, tl = tv+t1.Sub(t0), te+t2.Sub(t1), tl+time.Since(t2)
		}
		t0 := time.Now()
		if _, err := compileCells(core.DefaultRuntime()); err != nil {
			return nil, err
		}
		compile = append(compile, millis(time.Since(t0)))
		verify = append(verify, millis(tv))
		emit = append(emit, millis(te))
		lower = append(lower, millis(tl))
	}
	out := map[string]float64{
		"irverify.verify_ms": median(verify),
		"cgen.emit_ms":       median(emit),
		"kernelc.lower_ms":   median(lower),
		"core.compile_ms":    median(compile),
	}

	for _, st := range strategies {
		rt, kns, err := newRuntime(st)
		if err != nil {
			return nil, err
		}
		for i, c := range kernelCells {
			for j, n := range c.sizes {
				args, _, err := s.cellArgs(i, n)
				if err != nil {
					return nil, err
				}
				per := make([]float64, max(c.calls[j], layerCalls))
				for call := range per {
					t0 := time.Now()
					if _, err := kns[i].CallValues(args...); err != nil {
						return nil, err
					}
					per[call] = float64(time.Since(t0).Nanoseconds())
				}
				out[callMetric(c.name, n, st.name)] = median(per)
			}
		}
		if st.name == "auto" {
			ps := rt.Planner.Stats()
			out["plan.probes"] = float64(ps["probes"])
			out["plan.decisions"] = float64(ps["decisions"])
			out["plan.mispredicts"] = float64(ps["mispredict"])
		}
	}
	// plan.best_ratio: the share of cells where the planner's steady
	// state is within 1.1× of the fastest static strategy.
	cells, good := 0, 0
	for _, c := range kernelCells {
		for _, n := range c.sizes {
			best := 0.0
			for _, st := range strategies[:autoStrategy] {
				if v := out[callMetric(c.name, n, st.name)]; best == 0 || v < best {
					best = v
				}
			}
			cells++
			if out[callMetric(c.name, n, "auto")] <= 1.1*best {
				good++
			}
		}
	}
	out["plan.best_ratio"] = float64(good) / float64(cells)
	return out, nil
}
