package bench

import (
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/hotspot"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/vm"
)

// sweepWorker is one lane of a parallel sweep. Each worker owns a
// forked runtime (private vm.Machine and counter, shared compile cache)
// and a private simulated JVM, so size points measured concurrently
// never race on counters. Kernels and Java methods are memoized per
// worker: the first point a worker measures compiles them (a cache hit
// on the shared CompileCache for all but the first worker), later
// points reuse them — mirroring the one-compile-per-figure structure of
// the serial harness.
type sweepWorker struct {
	s       *Suite
	id      int
	rt      *core.Runtime
	jvm     *hotspot.VM
	total   vm.Counter
	points  int64
	kernels map[string]*core.Kernel
	methods map[string]*hotspot.Method

	// Measurement scratch, owned by the worker so the per-point measure
	// loop stays allocation-free at steady state: the cost estimator
	// (itself carrying reusable chain-analysis state), the repetition
	// perf samples, and the scaled-counts buffer reused across reps.
	est    *machine.Estimator
	perfs  []float64
	scaled vm.Counter

	// memo maps a baseline execution's hotspot.CountKey to its counts:
	// an execution whose counts are proven invariant runs once per
	// worker, and later reps and extrapolated points with the same key
	// reuse its counter. It lives and dies with the sweep.
	memo  map[string]vm.Counter
	memoN memoStats
}

// memoStats tallies what the baseline count memo did with each
// execution: reused counts (hits), executed and stored (misses), or
// executed without the memo (bypassed).
type memoStats struct {
	hits, misses, bypassed int64
}

func (m *memoStats) add(o memoStats) {
	m.hits += o.hits
	m.misses += o.misses
	m.bypassed += o.bypassed
}

func (s *Suite) newWorker(id int) *sweepWorker {
	return &sweepWorker{
		s:       s,
		id:      id,
		rt:      s.RT.Fork(),
		jvm:     hotspot.NewVM(s.JVM.Arch),
		total:   vm.Counter{},
		kernels: map[string]*core.Kernel{},
		methods: map[string]*hotspot.Method{},
		est:     machine.NewEstimator(s.RT.Arch),
		perfs:   make([]float64, 0, s.Reps),
		scaled:  vm.Counter{},
		memo:    map[string]vm.Counter{},
	}
}

// kernel memoizes a compiled staged kernel under name for this worker.
func (w *sweepWorker) kernel(name string, stage func() (*dsl.Kernel, error)) (*core.Kernel, error) {
	if kn, ok := w.kernels[name]; ok {
		return kn, nil
	}
	k, err := stage()
	if err != nil {
		return nil, err
	}
	kn, err := w.rt.Compile(k)
	if err != nil {
		return nil, err
	}
	w.kernels[name] = kn
	return kn, nil
}

// method memoizes a loaded Java method under name for this worker.
func (w *sweepWorker) method(name string, build func() (*ir.Func, error)) (*hotspot.Method, error) {
	if m, ok := w.methods[name]; ok {
		return m, nil
	}
	f, err := build()
	if err != nil {
		return nil, err
	}
	m, err := w.jvm.Load(f)
	if err != nil {
		return nil, err
	}
	w.methods[name] = m
	return m, nil
}

// measureStaged runs a staged kernel at runN on this worker's machine,
// scales to n, and returns the modeled performance. Raw (unscaled)
// counts accumulate into the worker total for the post-sweep merge.
func (w *sweepWorker) measureStaged(kn *core.Kernel, n, runN int, flops func(int) int64,
	footprint int, run func(runN int) error) (Point, error) {
	perfs := w.perfs[:0]
	var rep machine.Report
	for r := 0; r < w.s.Reps; r++ {
		w.rt.Machine.Counts.Reset()
		if err := run(runN); err != nil {
			return Point{}, err
		}
		counts := w.rt.Machine.Counts
		w.total.Merge(counts)
		if runN != n {
			counts = w.scaleCounts(counts, float64(flops(n))/float64(flops(runN)))
		}
		rep = w.est.Estimate(kn.Func(), counts, footprint)
		perfs = append(perfs, machine.FlopsPerCycle(flops(n), rep))
	}
	w.perfs = perfs[:0]
	return Point{N: n, Perf: median(perfs), Bound: rep.Bound, Level: rep.Level}, nil
}

// scaleCounts is the package-level scaleCounts into the worker's
// reusable buffer: repetitions at scaled sizes stop allocating a fresh
// counter per rep.
func (w *sweepWorker) scaleCounts(c vm.Counter, factor float64) vm.Counter {
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

// measureJava runs a HotSpot method at C2 steady state on this worker's
// JVM with args (sized for runN), scales to n, and returns the modeled
// performance. The model prices every rep; the execution behind a rep
// is skipped when the memo already holds counts under the same proven
// count key (see invokeJava).
func (w *sweepWorker) measureJava(m *hotspot.Method, n, runN int, flops func(int) int64,
	footprint int, args []vm.Value) (Point, error) {
	key, memo := m.CountKey(hotspot.TierC2, args)
	memo = memo && w.jvm.Machine.Cache == nil
	perfs := w.perfs[:0]
	var rep machine.Report
	for r := 0; r < w.s.Reps; r++ {
		counts, err := w.invokeJava(m, key, memo, args)
		if err != nil {
			return Point{}, err
		}
		w.total.Merge(counts)
		if runN != n {
			counts = w.scaleCounts(counts, float64(flops(n))/float64(flops(runN)))
		}
		rep = m.Estimate(hotspot.TierC2, counts, footprint)
		perfs = append(perfs, machine.FlopsPerCycle(flops(n), rep))
	}
	w.perfs = perfs[:0]
	return Point{N: n, Perf: median(perfs), Bound: rep.Bound, Level: rep.Level}, nil
}

// invokeJava returns the counts of one C2 execution of m on args,
// traced as a hotspot.invoke span under the current point. With memo
// set (key proven by hotspot.CountKey) a stored counter is returned
// without executing, and a fresh execution's counts are stored; the
// returned counter is read-only either way.
func (w *sweepWorker) invokeJava(m *hotspot.Method, key string, memo bool, args []vm.Value) (vm.Counter, error) {
	sp := w.rt.Span.Child("hotspot.invoke").SetAttr("tier", hotspot.TierC2.String())
	defer sp.End()
	if memo {
		if counts, ok := w.memo[key]; ok {
			w.memoN.hits++
			sp.SetAttr("memo", "hit")
			return counts, nil
		}
	}
	w.jvm.Machine.Counts.Reset()
	if _, err := m.InvokeAt(hotspot.TierC2, args...); err != nil {
		return nil, err
	}
	counts := w.jvm.Machine.Counts
	if !memo {
		w.memoN.bypassed++
		sp.SetAttr("memo", "bypass")
		return counts, nil
	}
	w.memoN.misses++
	sp.SetAttr("memo", "miss")
	counts = counts.Clone()
	w.memo[key] = counts
	return counts, nil
}

// forEachPoint fans points out over min(Workers, points) sweep workers.
// fn(i, w) measures point i on worker w and must write its result into
// a slot addressed by i only — that is what keeps the output
// deterministic regardless of scheduling. The pool is a semaphore
// channel carrying the workers themselves: a goroutine per point checks
// a worker out, measures, and returns it. After the barrier every
// worker's raw counter total merges into Suite.SweepCounts, so the
// merged counts match a serial run exactly. The single-worker path runs
// inline through the same worker code, guaranteeing -j 1 and -j N
// produce identical output.
//
// Tracing: the sweep opens one span named name, with one point#i child
// per size point created up front in index order — the span tree's
// structure is therefore identical at every worker count (the
// determinism tests compare skeletons). Each point span is Restarted
// when a worker picks it up, so its interval is the real execution
// window, and carries the worker's lane for the Chrome trace. The
// once-per-worker compile spans nest under whichever point a worker
// measured first — the only scheduling-dependent part of the tree.
func (s *Suite) forEachPoint(name string, points int, fn func(i int, w *sweepWorker) error) error {
	nw := s.Workers
	if nw < 1 {
		nw = 1
	}
	if nw > points {
		nw = points
	}
	if points == 0 {
		return nil
	}
	sweep := s.Tracer.Start(name)
	sweep.SetAttr("points", strconv.Itoa(points)).SetAttr("workers", strconv.Itoa(nw))
	defer sweep.End()
	pointSpans := make([]*obs.Span, points)
	for i := range pointSpans {
		pointSpans[i] = sweep.Child("point#" + strconv.Itoa(i))
	}

	workers := make([]*sweepWorker, nw)
	for i := range workers {
		workers[i] = s.newWorker(i)
	}
	defer func() {
		if s.SweepCounts == nil {
			s.SweepCounts = vm.Counter{}
		}
		for _, w := range workers {
			s.SweepCounts.Merge(w.total)
			s.baselineMemo.add(w.memoN)
			s.Metrics.Histogram("bench.worker.points").Observe(w.points)
		}
		s.Metrics.Counter("bench.points").Add(int64(points))
		s.Metrics.Gauge("bench.sweep.workers").Set(int64(nw))
	}()

	// measure runs point i on worker w with the point span as the
	// worker runtime's span parent. The Interrupt poll happens before
	// the measurement so a cancelled sweep stops at the next point
	// boundary; OnPoint fires after it with the completed count.
	var done atomic.Int64
	measure := func(i int, w *sweepWorker) error {
		if s.Interrupt != nil {
			if err := s.Interrupt(); err != nil {
				return err
			}
		}
		sp := pointSpans[i]
		sp.Restart().SetTid(w.id + 1)
		w.rt.Span = sp
		err := fn(i, w)
		w.rt.Span = nil
		sp.End()
		w.points++
		if err == nil && s.OnPoint != nil {
			s.OnPoint(name, int(done.Add(1)), points)
		}
		return err
	}

	if nw == 1 {
		w := workers[0]
		for i := 0; i < points; i++ {
			if err := measure(i, w); err != nil {
				return err
			}
		}
		return nil
	}

	pool := make(chan *sweepWorker, nw)
	for _, w := range workers {
		pool <- w
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		failed   atomic.Bool
	)
	for i := 0; i < points; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := <-pool
			defer func() { pool <- w }()
			if failed.Load() {
				return
			}
			if err := measure(i, w); err != nil {
				failed.Store(true)
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}
