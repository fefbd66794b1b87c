// Package bench is the measurement harness that regenerates the paper's
// evaluation artifacts: Figure 6a (SAXPY), Figure 6b (MMM), Figure 7
// (variable-precision dot products), and the headline speedup factors.
// It plays the role ScalaMeter plays in the paper's artifact (Section
// 3.4's setup: forked VM, warmed code, median of repetitions) — here the
// "measurement" is the analytical machine model applied to dynamic
// instruction counts of the kernels on the software SIMD machine.
//
// The figures read counts only, and kernelc proves them. A kernel or
// Java method whose counts kernelc.CountProof admits is evaluated once
// per suite and count key, and counted without executing
// (kernelc.Program.Count: the untainted loop, address and branch
// skeleton, closed-form where affine). Data is executed only where the
// count-only evaluator refuses, or where the memo steps aside: a cache
// simulator must see every access, and the planner calibrates from the
// calls it sees. Only then are a point's real inputs built (Figure 7's
// stochastic quantization included); counting reads argument shapes
// alone.
//
// Large problem sizes extrapolate: the kernel runs at a reduced size and
// its counts scale by the work ratio (exact for these uniformly
// structured kernels at power-of-two sizes), while the working-set
// footprint — which decides the cache level — uses the full size. The
// fixed per-invocation JNI cost never scales.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hotspot"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Point is one measured size.
type Point struct {
	N     int
	Perf  float64 // flops (or ops) per cycle
	Bound string  // dominating bound: compute/memory/latency
	Level string  // cache level of the working set
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// At returns the point for size n.
func (s Series) At(n int) (Point, bool) {
	for _, p := range s.Points {
		if p.N == n {
			return p, true
		}
	}
	return Point{}, false
}

// Max returns the series' best performance.
func (s Series) Max() float64 {
	best := 0.0
	for _, p := range s.Points {
		if p.Perf > best {
			best = p.Perf
		}
	}
	return best
}

// Suite owns the two runtimes an experiment compares: NGen (staged
// kernels over the vm) and the simulated HotSpot.
type Suite struct {
	RT  *core.Runtime
	JVM *hotspot.VM
	// MaxRunLinear / MaxRunCubic bound the directly-executed sizes for
	// linear-work and cubic-work kernels; larger sizes extrapolate.
	MaxRunLinear int
	MaxRunCubic  int
	// Reps is the ScalaMeter-style repetition count; the median
	// estimate is reported. The model prices every rep, but a
	// measurement — staged or baseline — whose counts
	// kernelc.CountProof proves invariant is evaluated once per suite
	// and count key, from proven counts without executing whenever the
	// count-only evaluator can (it refuses rather than guess, and then
	// the kernel executes once): later reps, later extrapolated points
	// at the same run size, and later sweeps reuse those counts. Staged
	// calls the planner routes (and executions under a cache simulator)
	// execute every rep.
	Reps int
	// Workers bounds how many size points a sweep measures
	// concurrently, each on a private forked runtime. 1 (the default)
	// measures serially; either way results are deterministic and
	// identical, and the workers share the suite's count memo, so the
	// number of evaluations does not depend on Workers either.
	Workers int
	// SweepCounts accumulates every worker's raw instruction counts,
	// merged after each sweep's barrier. Totals are independent of
	// Workers.
	SweepCounts vm.Counter
	// Tracer and Metrics, when attached (see Attach), record one span
	// per sweep and per size point — with the runtime's compile spans,
	// one staged.invoke / hotspot.invoke and one machine.estimate span
	// per rep, and the kernel call spans of executed staged reps nested
	// under the point — and the sweep-worker utilization metrics. A
	// sweep nests under RT.Span when it is set. Nil by default; a nil
	// tracer and registry cost nothing.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	// OnPoint, when set, is invoked after each measured sweep point
	// with the sweep name and the completed/total point counts. Points
	// measure concurrently when Workers > 1, so implementations must be
	// safe for concurrent use. The serving layer streams these as job
	// progress events; nil (the default) changes nothing.
	OnPoint func(sweep string, done, total int)
	// Interrupt, when set, is polled before each point measurement; a
	// non-nil return aborts the sweep with that error. This is how a
	// long sweep running as an ngend job observes cancellation and
	// shutdown. Must be safe for concurrent use; nil never interrupts.
	Interrupt func() error
	// Resume maps forEachPoint indices to the series points an
	// earlier, interrupted run of the same sweep (same figure, same
	// sizes) already measured, as captured via OnPointDone. Restored
	// points fill their slots bit-exactly and skip re-measurement —
	// the checkpoint/resume half of the serving layer. Nil (the
	// default) measures every point.
	Resume map[int][]PointCkpt
	// OnPointDone, when set, receives each completed point's exact-bit
	// checkpoint payload (measured or restored) as it finishes; the
	// serving layer persists these so an interrupted sweep can resume.
	// Points complete concurrently when Workers > 1, so
	// implementations must be safe for concurrent use.
	OnPointDone func(sweep string, i int, pts []PointCkpt)

	// memo holds the counts of every proven key the suite's sweeps
	// evaluated (see countMemo); stagedMemo and baselineMemo total every
	// sweep worker's memo outcomes per leg, merged after each sweep's
	// barrier like SweepCounts.
	memo                     *countMemo
	stagedMemo, baselineMemo memoStats
	// inputBuilds counts the real input sets the suite's sweeps built:
	// a point's (Figures 6a and 6b) or a series' (Figure 7), each once,
	// and only for a leg that executes (see argSet).
	inputBuilds atomic.Int64
}

// NewSuite builds the default Haswell suite.
func NewSuite() *Suite {
	return &Suite{
		RT:           core.DefaultRuntime(),
		JVM:          hotspot.NewVM(isa.Haswell),
		MaxRunLinear: 1 << 14,
		MaxRunCubic:  64,
		Reps:         3,
		Workers:      1,
		SweepCounts:  vm.Counter{},
		memo:         newCountMemo(),
	}
}

// Attach wires an observability sink into the suite and its NGen
// runtime. Sweeps then trace (sweep → point#i → compile/call spans) and
// PublishMetrics fills the registry.
func (s *Suite) Attach(tr *obs.Tracer, reg *obs.Registry) {
	s.Tracer, s.Metrics = tr, reg
	s.RT.Tracer, s.RT.Metrics = tr, reg
}

// PublishMetrics pushes every accumulated statistic into the attached
// registry: compile-cache and frame-pool state via the runtime, the
// count-memo totals under bench.staged.memo.* and
// bench.baseline.memo.* (misses, and of those the ones counted
// without executing), and the
// merged sweep instruction counts (plus any counts on the suite's own
// machine, e.g. from the cache-validation run) under vm.op.*.
// Idempotent — call it right before snapshotting. No-op when no
// registry is attached.
func (s *Suite) PublishMetrics() {
	if s.Metrics == nil {
		return
	}
	s.RT.PublishMetrics(s.Metrics, "")
	for _, m := range []struct {
		prefix string
		st     memoStats
	}{{"bench.staged.memo.", s.stagedMemo}, {"bench.baseline.memo.", s.baselineMemo}} {
		s.Metrics.Gauge(m.prefix + "hits").Set(m.st.hits)
		s.Metrics.Gauge(m.prefix + "misses").Set(m.st.misses)
		s.Metrics.Gauge(m.prefix + "counted").Set(m.st.counted)
		s.Metrics.Gauge(m.prefix + "bypassed").Set(m.st.bypassed)
	}
	merged := s.SweepCounts.Clone()
	merged.Merge(s.RT.Machine.Counts)
	merged.Publish(s.Metrics, "vm.op.")
}

// median of a small slice.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// Speedup returns the maximum ratio comp/base across common sizes — the
// "up to N×" figures the paper quotes.
func Speedup(base, comp Series) float64 {
	best := 0.0
	for _, p := range comp.Points {
		if b, ok := base.At(p.N); ok && b.Perf > 0 {
			if r := p.Perf / b.Perf; r > best {
				best = r
			}
		}
	}
	return best
}

// Format renders series as the aligned table cmd/ngen prints: one row
// per size, one column per series — the textual form of a figure.
func Format(title, metric string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(&b, "%-10s", "size")
	for _, s := range series {
		fmt.Fprintf(&b, "  %24s", s.Name)
	}
	fmt.Fprintf(&b, "\n")
	if len(series) == 0 {
		return b.String()
	}
	for _, p := range series[0].Points {
		fmt.Fprintf(&b, "%-10d", p.N)
		for _, s := range series {
			if q, ok := s.At(p.N); ok {
				fmt.Fprintf(&b, "  %18.3f %s/%s", q.Perf, abbrevBound(q.Bound), q.Level)
			} else {
				fmt.Fprintf(&b, "  %24s", "-")
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "(%s; bound: c=compute m=memory l=latency; level: working-set cache level)\n", metric)
	return b.String()
}

func abbrevBound(b string) string {
	if b == "" {
		return "?"
	}
	return b[:1]
}

// Pow2Sizes returns 2^lo..2^hi.
func Pow2Sizes(lo, hi int) []int {
	var out []int
	for e := lo; e <= hi; e++ {
		out = append(out, 1<<e)
	}
	return out
}

// MMMSizes returns the Figure 6b x-axis: 8 then multiples of 64 up to
// 1024.
func MMMSizes() []int {
	out := []int{8}
	for n := 64; n <= 1024; n += 64 {
		out = append(out, n)
	}
	return out
}
