package bench

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/hotspot"
	"repro/internal/ir"
	"repro/internal/kernelc"
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

	// memo is the suite's count memo, shared by every worker of every
	// sweep; staged and baseline tally what it did with this worker's
	// measurements of each leg.
	memo             *countMemo
	staged, baseline memoStats
}

// memoStats tallies what the count memo did with each measurement:
// reused counts (hits), produced and stored them (misses — counted
// without executing, or executed when the count-only evaluator
// refused), or executed without the memo (bypassed).
type memoStats struct {
	hits, misses, counted, bypassed int64
}

func (m *memoStats) add(o memoStats) {
	m.hits += o.hits
	m.misses += o.misses
	m.counted += o.counted
	m.bypassed += o.bypassed
}

// countMemo maps a proven count key (core.Kernel.CountKey or
// hotspot.Method.CountKey) to the counts of the one evaluation made
// under it. One memo serves a whole suite — every sweep, so `ngen all`
// re-sweeps a figure from the memo alone; keys name the kernel and
// graph hash or method and tier, and the argument shapes, so sharing
// across sweeps is as sound as within one. The first request for a key
// evaluates — counting without executing when it can — concurrent
// requests for the same key wait for that evaluation (like the compile
// cache's single flight), and every later request reuses it, so a suite
// evaluates each distinct key once at any worker count.
type countMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
}

// memoEntry is one key's execution; done closes once counts and err
// are final.
type memoEntry struct {
	done   chan struct{}
	counts vm.Counter
	err    error
}

func newCountMemo() *countMemo {
	return &countMemo{entries: map[string]*memoEntry{}}
}

// get returns the counts stored under key. When no evaluation holds the
// key yet it produces them with count, and with run when count refuses
// (kernelc.ErrNotCounted); hit reports that the counts came from
// another evaluation, counted that this one produced them without
// executing. The returned counter is shared and read-only. An
// evaluation's error is kept like its counts — the proof behind the key
// makes the error outcome as invariant as the counts.
func (c *countMemo) get(key string, count, run func() (vm.Counter, error)) (counts vm.Counter, hit, counted bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		return e.counts, true, false, e.err
	}
	e := &memoEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	counts, e.err = count()
	counted = !errors.Is(e.err, kernelc.ErrNotCounted)
	if !counted {
		counts, e.err = run()
	}
	if e.err == nil {
		e.counts = counts.Clone()
	}
	close(e.done)
	return e.counts, false, counted, e.err
}

func (s *Suite) newWorker(id int, memo *countMemo) *sweepWorker {
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
		memo:    memo,
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
	sp := w.rt.Span.Child("hotspot.load")
	sp.SetAttr("method", f.Name)
	m, err := w.jvm.Load(f)
	sp.End()
	if err != nil {
		return nil, err
	}
	w.methods[name] = m
	return m, nil
}

// leg is one side of a figure's comparison as measure drives it: the
// span each rep opens (with its tier attribute, if any), the proven
// count key — memo false sends every rep past the memo — the count-only
// evaluation and the execution, each returning the machine's counts,
// and the model pricing counts at the point's footprint.
type leg struct {
	span, tier string
	key        string
	memo       bool
	stats      *memoStats
	count, run func() (vm.Counter, error)
	price      func(counts vm.Counter) machine.Report
}

// stagedLeg measures a staged kernel called on args (sized for the run
// size). The memo steps aside when a cache simulator must see every
// access and when the runtime plans (Planner attached): the planner
// calibrates from the invocations it sees.
func (w *sweepWorker) stagedLeg(kn *core.Kernel, args []vm.Value, footprint int) leg {
	key, ok := kn.CountKey(args)
	return leg{span: "staged.invoke", key: key,
		memo:  ok && w.rt.Machine.Cache == nil && w.rt.Planner == nil,
		stats: &w.staged,
		count: func() (vm.Counter, error) {
			w.rt.Machine.Counts.Reset()
			err := kn.CountValues(args...)
			return w.rt.Machine.Counts, err
		},
		run: func() (vm.Counter, error) {
			w.rt.Machine.Counts.Reset()
			_, err := kn.CallValues(args...)
			return w.rt.Machine.Counts, err
		},
		price: func(counts vm.Counter) machine.Report {
			return w.est.Estimate(kn.Func(), counts, footprint)
		},
	}
}

// javaLeg measures a HotSpot method at C2 steady state on this worker's
// JVM with args (sized for the run size). The memo steps aside when a
// cache simulator is attached to the JVM's machine.
func (w *sweepWorker) javaLeg(m *hotspot.Method, args []vm.Value, footprint int) leg {
	key, ok := m.CountKey(hotspot.TierC2, args)
	return leg{span: "hotspot.invoke", tier: hotspot.TierC2.String(), key: key,
		memo:  ok && w.jvm.Machine.Cache == nil,
		stats: &w.baseline,
		count: func() (vm.Counter, error) {
			w.jvm.Machine.Counts.Reset()
			err := m.CountAt(hotspot.TierC2, args...)
			return w.jvm.Machine.Counts, err
		},
		run: func() (vm.Counter, error) {
			w.jvm.Machine.Counts.Reset()
			_, err := m.InvokeAt(hotspot.TierC2, args...)
			return w.jvm.Machine.Counts, err
		},
		price: func(counts vm.Counter) machine.Report {
			return m.Estimate(hotspot.TierC2, counts, footprint)
		},
	}
}

// measure runs leg l Reps times at runN, scales each rep's counts to n
// and returns the modeled performance (the median rep). The model
// prices every rep, each in a machine.estimate span; the evaluation
// behind a rep is skipped when the suite's memo already holds counts
// under the leg's key (see invoke). Raw (unscaled) counts accumulate
// into the worker total for the post-sweep merge either way.
func (w *sweepWorker) measure(l leg, n, runN int, flops func(int) int64) (Point, error) {
	perfs := w.perfs[:0]
	var rep machine.Report
	for r := 0; r < w.s.Reps; r++ {
		counts, err := w.invoke(&l)
		if err != nil {
			return Point{}, err
		}
		w.total.Merge(counts)
		if runN != n {
			counts = w.scaleCounts(counts, float64(flops(n))/float64(flops(runN)))
		}
		sp := w.rt.Span.Child("machine.estimate")
		rep = l.price(counts)
		sp.End()
		perfs = append(perfs, machine.FlopsPerCycle(flops(n), rep))
	}
	w.perfs = perfs[:0]
	return Point{N: n, Perf: median(perfs), Bound: rep.Bound, Level: rep.Level}, nil
}

// invoke returns the counts of one rep of l, traced as an l.span span
// under the current point: reused from the memo (memo=hit), evaluated
// and stored (memo=miss, with eval=count when counted without
// executing, eval=exec when executed), or executed past the memo
// (memo=bypass). The span parents the runtime's call:<kernel> span
// while it runs, so that span appears only when the kernel actually
// executes. The returned counter is read-only.
func (w *sweepWorker) invoke(l *leg) (vm.Counter, error) {
	point := w.rt.Span
	sp := point.Child(l.span)
	if l.tier != "" {
		sp.SetAttr("tier", l.tier)
	}
	w.rt.Span = sp
	defer func() {
		w.rt.Span = point
		sp.End()
	}()
	if !l.memo {
		l.stats.bypassed++
		sp.SetAttr("memo", "bypass")
		return l.run()
	}
	counts, hit, counted, err := w.memo.get(l.key, l.count, l.run)
	switch {
	case hit:
		l.stats.hits++
		sp.SetAttr("memo", "hit")
	case counted:
		l.stats.misses++
		l.stats.counted++
		sp.SetAttr("memo", "miss").SetAttr("eval", "count")
	default:
		l.stats.misses++
		sp.SetAttr("memo", "miss").SetAttr("eval", "exec")
	}
	return counts, err
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

// forEachPoint fans points out over min(Workers, points) sweep workers.
// fn(i, w) measures point i on worker w and must write its result into
// a slot addressed by i only — that is what keeps the output
// deterministic regardless of scheduling. The workers share the
// suite's count memo (see countMemo). The pool is a semaphore
// channel carrying the workers themselves: a goroutine per point checks
// a worker out, measures, and returns it. After the barrier every
// worker's raw counter total merges into Suite.SweepCounts, so the
// merged counts match a serial run exactly. The single-worker path runs
// inline through the same worker code, guaranteeing -j 1 and -j N
// produce identical output.
//
// Tracing: the sweep opens one span named name (under the suite
// runtime's Span when one is set, top-level otherwise), with one point#i child
// per size point created up front in index order — the span tree's
// structure is therefore identical at every worker count (the
// determinism tests compare skeletons). Each point span is Restarted
// when a worker picks it up, so its interval is the real execution
// window, and carries the worker's lane for the Chrome trace. Two parts
// of the tree depend on scheduling: the once-per-worker compile spans
// nest under whichever point a worker measured first, and a memoized
// kernel's call span (and each rep's memo attribute) lands under
// whichever point ran its key first.
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
	var sweep *obs.Span
	if s.RT.Span != nil {
		sweep = s.RT.Span.Child(name)
	} else {
		sweep = s.Tracer.Start(name)
	}
	sweep.SetAttr("points", strconv.Itoa(points)).SetAttr("workers", strconv.Itoa(nw))
	defer sweep.End()
	pointSpans := make([]*obs.Span, points)
	for i := range pointSpans {
		pointSpans[i] = sweep.Child("point#" + strconv.Itoa(i))
	}

	workers := make([]*sweepWorker, nw)
	for i := range workers {
		workers[i] = s.newWorker(i, s.memo)
	}
	defer func() {
		if s.SweepCounts == nil {
			s.SweepCounts = vm.Counter{}
		}
		for _, w := range workers {
			s.SweepCounts.Merge(w.total)
			s.stagedMemo.add(w.staged)
			s.baselineMemo.add(w.baseline)
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
