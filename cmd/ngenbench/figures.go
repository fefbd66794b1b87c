package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/hotspot"
	"repro/internal/ir"
	"repro/internal/irverify"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/quant"
	"repro/internal/vm"
)

// referencePath holds the committed output of `ngen all`; every figure
// table a timed sample prints must appear in it verbatim.
const referencePath = "results/ngen_all.txt"

// figureSession runs one paper figure exactly as `ngen <figure>` does:
// the full size axis, suite defaults, sweep workers and loop lanes both
// at the CPU count, and a fresh bench.Suite per sample.
type figureSession struct {
	figure    string
	sizes     []int
	reference string
	// points rebuilds the sweep's size points for the layer pass;
	// perSize is how many points each size contributes.
	points  func(s *bench.Suite, sizes []int) []point
	perSize int
}

func setupFigure(figure string) setupFunc {
	return func(cfg config) (session, map[string]float64, error) {
		t0 := time.Now()
		irverify.SpecIndex()
		parts := map[string]float64{"xmlspec.index_s": time.Since(t0).Seconds()}
		ref, err := os.ReadFile(referencePath)
		if err != nil {
			return nil, nil, fmt.Errorf("reference output: %w", err)
		}
		sizes, err := bench.FigureSizes(figure, false)
		if err != nil {
			return nil, nil, err
		}
		f := &figureSession{figure: figure, sizes: sizes, reference: string(ref),
			points: mmmPoints, perSize: 1}
		if figure == "fig7" {
			f.points, f.perSize = dotPoints, 8 // 4 precisions × Java and LMS
		}
		return f, parts, nil
	}
}

func (f *figureSession) close() error { return nil }

// figureWorkers is the sweep workers and loop lanes of a figure sample,
// the CPU count as in ngen.
var figureWorkers = runtime.NumCPU()

func newFigureSuite() *bench.Suite {
	s := bench.NewSuite()
	s.Workers = figureWorkers
	s.RT.Machine.Workers = figureWorkers
	return s
}

func (f *figureSession) run(cfg config) (*result, error) {
	res := &result{}
	points := f.perSize * len(f.sizes)
	var ops int64
	start := time.Now()
	for another(start, len(res.UnitsMs), cfg.seconds) {
		// Every sample starts from a collected heap, after a
		// calibration burst.
		runtime.GC()
		res.calibrate(figureWorkers)
		s := newFigureSuite()
		t0 := time.Now()
		text, err := s.RunFigure(f.figure, f.sizes)
		ms := millis(time.Since(t0))
		if err != nil {
			return nil, err
		}
		res.UnitsMs = append(res.UnitsMs, ms)
		res.Attempted += points
		if !strings.Contains(f.reference, text) {
			res.fail(points, "sample %d: the %s table is not in %s",
				len(res.UnitsMs), f.figure, referencePath)
		}
		ops = s.SweepCounts.Total()
	}
	res.calibrate(figureWorkers)
	if cfg.trace {
		s := newFigureSuite()
		lt, err := replay(s, func() []point { return f.points(s, f.sizes) })
		if err != nil {
			return nil, err
		}
		if err := lt.guard(ops); err != nil {
			res.fail(points, "%v", err)
		}
		res.Layers = lt.metrics(median(res.UnitsMs))
	}
	return res, nil
}

// --- layer pass -------------------------------------------------------------

// measurement is one timed execution inside a sweep point: a staged
// kernel (stage set) or a Java method at C2 (method set), with its
// argument values at the run size.
type measurement struct {
	key    string
	stage  func() (*dsl.Kernel, error)
	method func() (*ir.Func, error)
	args   []vm.Value
}

// point is one size point of a figure sweep, as bench's forEachPoint
// measures it: every measurement repeats Reps times at runN and its
// counts scale to n before the model prices them.
type point struct {
	n, runN, footprint int
	flops              func(int) int64
	ms                 []measurement
}

// randSlice is the bench harness's deterministic input generator.
func randSlice(n int, seed uint64) []float32 {
	rng := vm.NewXorshift(seed)
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.Uniform()*2 - 1)
	}
	return out
}

// mmmPoints rebuilds Fig6b's points: one staged MMM and the triple-loop
// and blocked Java methods over shared matrices.
func mmmPoints(s *bench.Suite, sizes []int) []point {
	fs := s.RT.Arch.Features
	var pts []point
	for _, n := range sizes {
		runN := min(n, s.MaxRunCubic)
		a := vm.PinF32(randSlice(runN*runN, 3))
		b := vm.PinF32(randSlice(runN*runN, 4))
		c := vm.PinF32(make([]float32, runN*runN))
		args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0), vm.PtrValue(c, 0), vm.IntValue(runN)}
		pts = append(pts, point{n: n, runN: runN, footprint: 12 * n * n, flops: kernels.MMMFlops,
			ms: []measurement{
				{key: "mmm", stage: func() (*dsl.Kernel, error) { return kernels.StagedMMM(fs), nil }, args: args},
				{key: "java-mmm-triple", method: func() (*ir.Func, error) { return kernels.JavaMMMTriple(fs), nil }, args: args},
				{key: "java-mmm-blocked", method: func() (*ir.Func, error) { return kernels.JavaMMMBlocked(fs), nil }, args: args},
			}})
	}
	return pts
}

// dotPoints rebuilds Fig7's points: the four Java series, then the four
// staged series, each drawing its quantization noise from its own RNG
// across the sizes in order.
func dotPoints(s *bench.Suite, sizes []int) []point {
	fs := s.RT.Arch.Features
	bitsList := []int{32, 16, 8, 4}
	var pts []point
	for _, java := range []bool{true, false} {
		for _, bits := range bitsList {
			seed := uint64(1234)
			m := measurement{key: fmt.Sprintf("dot-%d", bits),
				stage: func() (*dsl.Kernel, error) { return kernels.StagedDot(bits, fs) }}
			if java {
				seed = 4321
				m = measurement{key: fmt.Sprintf("java-dot-%d", bits),
					method: func() (*ir.Func, error) { return kernels.JavaDot(bits, fs) }}
			}
			rng := vm.NewXorshift(seed)
			for _, n := range sizes {
				runN := min(n, s.MaxRunLinear)
				m.args = dotArgs(bits, runN, java, rng)
				pts = append(pts, point{n: n, runN: runN, footprint: dotFootprint(bits, n),
					flops: kernels.DotOps, ms: []measurement{m}})
			}
		}
	}
	return pts
}

// dotFootprint is the two-array working set at each precision.
func dotFootprint(bits, n int) int {
	switch bits {
	case 32:
		return 8 * n
	case 16:
		return 4 * n
	case 8:
		return 2 * n
	default:
		return n
	}
}

// dotArgs quantizes the Fig7 inputs for one precision: the staged
// kernels take IEEE halves at 16 bits and a decode table at 4 bits, the
// Java methods scaled shorts and no table.
func dotArgs(bits, runN int, java bool, rng *vm.Xorshift) []vm.Value {
	a, b := randSlice(runN, 7), randSlice(runN, 8)
	n := vm.IntValue(runN)
	switch {
	case bits == 32:
		return []vm.Value{vm.PtrValue(vm.PinF32(a), 0), vm.PtrValue(vm.PinF32(b), 0), n}
	case bits == 16 && java:
		sa, sb := quant.Scale(a, 16), quant.Scale(b, 16)
		qa, qb := make([]int16, runN), make([]int16, runN)
		for i := range a {
			qa[i] = int16(a[i] * sa)
			qb[i] = int16(b[i] * sb)
		}
		return []vm.Value{vm.PtrValue(vm.PinI16(qa), 0), vm.PtrValue(vm.PinI16(qb), 0),
			vm.F32Value(1 / (sa * sb)), n}
	case bits == 16:
		ha, hb := quant.EncodeF16(a), quant.EncodeF16(b)
		return []vm.Value{vm.PtrValue(vm.PinU16(ha.Data), 0), vm.PtrValue(vm.PinU16(hb.Data), 0), n}
	case bits == 8:
		qa, qb := quant.QuantizeQ8(a, rng), quant.QuantizeQ8(b, rng)
		return []vm.Value{vm.PtrValue(vm.PinI8(qa.Data), 0), vm.PtrValue(vm.PinI8(qb.Data), 0),
			vm.F32Value(1 / (qa.Scale * qb.Scale)), n}
	default:
		qa, qb := quant.QuantizeQ4(a, rng), quant.QuantizeQ4(b, rng)
		inv := vm.F32Value(1 / (qa.Scale * qb.Scale))
		pa, pb := vm.PtrValue(vm.PinU8(qa.Data), 0), vm.PtrValue(vm.PinU8(qb.Data), 0)
		if java {
			return []vm.Value{pa, pb, inv, n}
		}
		return []vm.Value{pa, pb, vm.PtrValue(vm.PinI8(kernels.DecodeLUT4()), 0), inv, n}
	}
}

// layerTimes is the busy time each layer spent during a replay, and the
// raw op counts it executed.
type layerTimes struct {
	compile, load, call, invoke, estimate time.Duration
	staged, baseline                      int64
	workers                               int
	wall                                  time.Duration
}

func (t *layerTimes) add(o *layerTimes) {
	t.compile += o.compile
	t.load += o.load
	t.call += o.call
	t.invoke += o.invoke
	t.estimate += o.estimate
	t.staged += o.staged
	t.baseline += o.baseline
}

// guard is the replay fidelity check: the layer pass must execute
// exactly the ops the timed sample did, or its split describes other
// work.
func (t *layerTimes) guard(sampleOps int64) error {
	if got := t.staged + t.baseline; got != sampleOps {
		return fmt.Errorf("layer pass executed %d ops, the timed sample %d", got, sampleOps)
	}
	return nil
}

// metrics renders the replay as per-layer metrics; bench.self_s is the
// workers' busy time no public call accounts for.
func (t *layerTimes) metrics(timedMedianMs float64) map[string]float64 {
	layers := t.compile + t.load + t.call + t.invoke + t.estimate
	return map[string]float64{
		"core.compile_s":       t.compile.Seconds(),
		"hotspot.load_s":       t.load.Seconds(),
		"core.call_s":          t.call.Seconds(),
		"hotspot.invoke_s":     t.invoke.Seconds(),
		"machine.estimate_s":   t.estimate.Seconds(),
		"bench.self_s":         (time.Duration(t.workers)*t.wall - layers).Seconds(),
		"vm.ops_staged":        float64(t.staged),
		"vm.ops_baseline":      float64(t.baseline),
		"layer_overhead_ratio": float64(t.wall.Nanoseconds())/1e6/timedMedianMs - 1,
	}
}

// replayWorker mirrors one bench sweep worker: a forked runtime, a
// private simulated JVM and estimator, and per-worker memoized kernels
// and methods.
type replayWorker struct {
	rt      *core.Runtime
	jvm     *hotspot.VM
	est     *machine.Estimator
	kernels map[string]*core.Kernel
	methods map[string]*hotspot.Method
	scaled  vm.Counter
	reps    int
	t       layerTimes
}

// replay measures every point again through the public calls of core,
// hotspot and machine, timing each call from outside, with the suite's
// runtime, workers and repetitions as a timed sweep uses them. Building
// the inputs is harness work, so it runs inside the replay's wall time
// as a sample's does.
func replay(s *bench.Suite, build func() []point) (*layerTimes, error) {
	t0 := time.Now()
	pts := build()
	nw := min(s.Workers, len(pts))
	ws := make([]*replayWorker, nw)
	for i := range ws {
		ws[i] = &replayWorker{rt: s.RT.Fork(), jvm: hotspot.NewVM(s.JVM.Arch),
			est: machine.NewEstimator(s.RT.Arch), kernels: map[string]*core.Kernel{},
			methods: map[string]*hotspot.Method{}, scaled: vm.Counter{}, reps: s.Reps}
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	for _, w := range ws {
		wg.Add(1)
		go func(w *replayWorker) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(pts); i = int(next.Add(1)) - 1 {
				if err := w.point(pts[i]); err != nil {
					errOnce.Do(func() { first = err })
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	total := &layerTimes{workers: nw, wall: time.Since(t0)}
	for _, w := range ws {
		total.add(&w.t)
	}
	return total, nil
}

func (w *replayWorker) point(p point) error {
	for _, m := range p.ms {
		if m.stage != nil {
			if err := w.staged(p, m); err != nil {
				return err
			}
		} else if err := w.java(p, m); err != nil {
			return err
		}
	}
	return nil
}

func (w *replayWorker) staged(p point, m measurement) error {
	kn, ok := w.kernels[m.key]
	if !ok {
		k, err := m.stage()
		if err != nil {
			return err
		}
		t0 := time.Now()
		kn, err = w.rt.Compile(k)
		w.t.compile += time.Since(t0)
		if err != nil {
			return err
		}
		w.kernels[m.key] = kn
	}
	for r := 0; r < w.reps; r++ {
		w.rt.Machine.Counts.Reset()
		t0 := time.Now()
		_, err := kn.CallValues(m.args...)
		w.t.call += time.Since(t0)
		if err != nil {
			return err
		}
		w.t.staged += w.rt.Machine.Counts.Total()
		counts := w.scale(w.rt.Machine.Counts, p)
		t0 = time.Now()
		w.est.Estimate(kn.Func(), counts, p.footprint)
		w.t.estimate += time.Since(t0)
	}
	return nil
}

func (w *replayWorker) java(p point, m measurement) error {
	jm, ok := w.methods[m.key]
	if !ok {
		f, err := m.method()
		if err != nil {
			return err
		}
		t0 := time.Now()
		jm, err = w.jvm.Load(f)
		w.t.load += time.Since(t0)
		if err != nil {
			return err
		}
		w.methods[m.key] = jm
	}
	for r := 0; r < w.reps; r++ {
		w.jvm.Machine.Counts.Reset()
		t0 := time.Now()
		_, err := jm.InvokeAt(hotspot.TierC2, m.args...)
		w.t.invoke += time.Since(t0)
		if err != nil {
			return err
		}
		w.t.baseline += w.jvm.Machine.Counts.Total()
		counts := w.scale(w.jvm.Machine.Counts, p)
		t0 = time.Now()
		jm.Estimate(hotspot.TierC2, counts, p.footprint)
		w.t.estimate += time.Since(t0)
	}
	return nil
}

// scale extrapolates counts from runN to n by the work ratio, as the
// harness does; the per-invocation JNI crossing never scales.
func (w *replayWorker) scale(c vm.Counter, p point) vm.Counter {
	if p.runN == p.n {
		return c
	}
	factor := float64(p.flops(p.n)) / float64(p.flops(p.runN))
	w.scaled.Reset()
	for k, v := range c {
		if k == core.JNICall {
			w.scaled[k] = v
			continue
		}
		w.scaled[k] = int64(float64(v)*factor + 0.5)
	}
	return w.scaled
}
