package core

// Auto-planned execution: with a Planner attached the runtime defers
// the (backend, lanes) choice to the adaptive planner (internal/plan)
// per kernel × size bucket — for kernels that have a choice. The
// artifact carries the program at the runtime's tier and, resolved
// once on its first planned call, the native executable when a
// prebuilt plugin is on hand; every strategy executes the identical
// counted op stream, so planning changes wall time only — results,
// writes, dynamic counts, and therefore figure bytes are invariant
// (pinned by the backend/parallel differential suites and
// TestAutoPlanDifferential).

import (
	"errors"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/vm"
)

// defaultSpec is the planner's safe incumbent: the zero-value runtime
// behavior (interpreter, serial). A cold key's first invocation always
// runs it.
var defaultSpec = machine.StrategySpec{Backend: "vm", Lanes: 1}

// EnableAutoPlan switches the runtime to planner-driven execution by
// attaching a Planner (sharing the disk cache for plan persistence
// when one is present). Idempotent; forks made afterwards share the
// planner, so calibration from any worker benefits all of them.
func (rt *Runtime) EnableAutoPlan() {
	if rt.Planner == nil {
		rt.Planner = plan.New()
	}
	if rt.Disk != nil {
		rt.Planner.SetStore(rt.Disk)
	}
}

// estimator returns the runtime's lazily built cost estimator. Like
// the machine, it is private to the runtime (its chain-analysis
// scratch is not goroutine-safe); forks build their own.
func (rt *Runtime) estimator() *machine.Estimator {
	if rt.est == nil {
		rt.est = machine.NewEstimator(rt.Arch)
	}
	return rt.est
}

// choice is what the planner may route one artifact's calls to
// besides the serial interpreter and, when a loop has a parallel plan
// (kernelc.Program.Parallel), its lanes: a prebuilt native executable,
// kept apart from the runtime backend's exec so a static runtime
// sharing the artifact never runs it. It is resolved once per
// artifact, on its first planned call.
type choice struct {
	once   sync.Once
	native backend.Executable
}

// strategies resolves the artifact's choice on first use.
func (a *artifact) strategies(rt *Runtime) *choice {
	c := &a.choice
	c.once.Do(func() {
		c.native = rt.cachedNative(a.f)
	})
	return c
}

// cachedNative resolves a native executable for the planner without
// ever paying a toolchain build: only a process-memo or blob-store hit
// (backend.CachedCompiler) qualifies. Cold caches simply run without a
// native candidate; `ngen plan` builds plugins eagerly so warm runs
// have one.
func (rt *Runtime) cachedNative(f *ir.Func) backend.Executable {
	be, err := backend.Lookup("native")
	if err != nil || be.Available() != nil {
		return nil
	}
	if sa, ok := be.(backend.StoreAware); ok && rt.Disk != nil {
		sa.SetStore(rt.Disk)
	}
	cc, ok := be.(backend.CachedCompiler)
	if !ok {
		return nil
	}
	exe, ok := cc.CompileCached(f)
	if !ok {
		return nil
	}
	return exe
}

// run routes one invocation: planner-driven when the kernel is
// planned, the static artifact path otherwise.
func (kn *Kernel) run(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	if c := kn.plannedChoice(); c != nil {
		return kn.runPlanned(m, c, args...)
	}
	return kn.art.run(m, args...)
}

// Planned reports whether the runtime plans this kernel's calls: it has
// a Planner, and the kernel has a choice — a native executable on hand,
// or lanes (Workers > 1) and a loop with a parallel plan. A kernel
// whose only admissible strategy is vm/1 is never planned: no plan, no
// probes, no plan file.
func (kn *Kernel) Planned() bool { return kn.plannedChoice() != nil }

// plannedChoice returns the artifact's choice when the kernel is
// planned, and nil when it is not.
func (kn *Kernel) plannedChoice() *choice {
	rt := kn.rt
	if rt.Planner == nil {
		return nil
	}
	c := kn.art.strategies(rt)
	if c.native == nil && !(rt.Machine.Workers > 1 && kn.art.prog.Parallel()) {
		return nil
	}
	return c
}

// runPlanned executes under the planner. A cold (hash, arch, bucket)
// key runs the default strategy, prices every admissible candidate
// from that run's op-count delta, and folds its timing in as the first
// probe — exploration is amortized over real invocations, never extra
// runs. Known keys execute whatever Decide returns (a calibration
// probe or the calibrated winner) and report the measured time back.
func (kn *Kernel) runPlanned(m *vm.Machine, c *choice, args ...vm.Value) (vm.Value, error) {
	rt := kn.rt
	key := plan.Key{Hash: kn.art.hash, Arch: rt.Arch.Name, Bucket: plan.Bucket(footprint(args))}
	d, ok := rt.Planner.Decide(key)
	if !ok {
		before := m.Counts.Total()
		start := time.Now()
		out, err := kn.execStrategy(m, c, defaultSpec, args)
		elapsed := time.Since(start)
		if err != nil {
			return out, err
		}
		kn.installPlan(key, c, m.Counts.Total()-before)
		rt.Planner.Observe(key, defaultSpec, float64(elapsed.Nanoseconds()))
		return out, nil
	}
	start := time.Now()
	out, err := kn.execStrategy(m, c, d.Spec, args)
	if err == nil {
		rt.Planner.Observe(key, d.Spec, float64(time.Since(start).Nanoseconds()))
	}
	return out, err
}

// installPlan prices the admissible strategies for one cold key from
// a measured single-invocation op-count delta and registers the plan.
// The default strategy is always first.
func (kn *Kernel) installPlan(key plan.Key, c *choice, deltaOps int64) {
	rt := kn.rt
	specs := make([]machine.StrategySpec, 0, 3)
	specs = append(specs, defaultSpec)
	if c.native != nil {
		specs = append(specs, machine.StrategySpec{Backend: "native", Lanes: 1})
	}
	if w := rt.Machine.Workers; w > 1 && kn.art.prog.Parallel() {
		specs = append(specs, machine.StrategySpec{Backend: "vm", Lanes: w})
	}
	counts := vm.Counter{"ops": deltaOps}
	costs := rt.estimator().PredictStrategies(kn.art.f, counts, specs)
	rt.Planner.Install(key, kn.art.f.Name, costs)
}

// execStrategy runs one invocation under an explicit strategy. The
// serial strategies force the machine's lane budget off so a runtime
// configured with workers still measures a true serial baseline; the
// parallel strategy installs the planner's lane count for the duration
// of the call.
func (kn *Kernel) execStrategy(m *vm.Machine, c *choice, s machine.StrategySpec, args []vm.Value) (vm.Value, error) {
	if s.Backend == "native" && c.native != nil {
		out, err := c.native.Run(m, args...)
		if !errors.Is(err, backend.ErrFallback) {
			return out, err
		}
		// The executable declined this particular call (cache simulator
		// attached, argument shape mismatch): the interpreter serves it.
	}
	saved := m.Workers
	m.Workers = 0
	if s.Lanes > 1 {
		m.Workers = s.Lanes
	}
	out, err := kn.art.prog.Run(m, args...)
	m.Workers = saved
	return out, err
}

// footprint sums the byte sizes of the invocation's pinned buffers —
// the working set the size bucket is derived from. Scalar arguments
// contribute nothing: strategy crossovers track memory traffic.
func footprint(args []vm.Value) int64 {
	var b int64
	for i := range args {
		if args[i].Mem != nil {
			b += int64(len(args[i].Mem.Data))
		}
	}
	return b
}
