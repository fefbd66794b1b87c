package core

// Auto-planned execution: with Opt = kernelc.TierAuto the runtime
// defers the (backend, lanes) choice to the adaptive planner
// (internal/plan) per kernel × size bucket. The artifact carries the
// opt-tier program and, when a prebuilt plugin is on hand, the native
// executable; every strategy executes the identical counted op stream,
// so planning changes wall time only — results, writes, dynamic counts,
// and therefore figure bytes are invariant (pinned by the backend/
// parallel differential suites and TestAutoPlanDifferential).

import (
	"errors"
	"time"

	"repro/internal/backend"
	"repro/internal/ir"
	"repro/internal/kernelc"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/vm"
)

// defaultSpec is the planner's safe incumbent: the zero-value runtime
// behavior (interpreter, serial). A cold key's first invocation always
// runs it, and pruning never removes it.
var defaultSpec = machine.StrategySpec{Backend: "vm", Lanes: 1}

// EnableAutoPlan switches the runtime to planner-driven execution:
// Opt becomes kernelc.TierAuto and a Planner is attached (sharing the
// disk cache for plan persistence when one is present). Idempotent;
// forks made afterwards share the planner, so calibration from any
// worker benefits all of them.
func (rt *Runtime) EnableAutoPlan() {
	rt.EnableAutoPlanWith(plan.Config{})
}

// EnableAutoPlanWith is EnableAutoPlan with explicit planner tuning —
// `ngen plan` uses ExploreAll to probe every candidate for its
// predicted-vs-measured table.
func (rt *Runtime) EnableAutoPlanWith(cfg plan.Config) {
	rt.Opt = kernelc.TierAuto
	if rt.Planner == nil {
		rt.Planner = plan.New(cfg)
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

// autoExec resolves a native executable for auto mode without ever
// paying a toolchain build: only a process-memo or blob-store hit
// (backend.CachedCompiler) qualifies. Cold caches simply run without a
// native candidate; `ngen plan` builds plugins eagerly so warm runs
// have one.
func (rt *Runtime) autoExec(f *ir.Func) backend.Executable {
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
	exe, ok := cc.CompileCached(f, kernelc.TierOpt)
	if !ok {
		return nil
	}
	return exe
}

// run routes one invocation: planner-driven for an artifact lowered in
// auto mode, the static artifact path otherwise.
func (kn *Kernel) run(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	rt := kn.rt
	if rt.Opt != kernelc.TierAuto || rt.Planner == nil || !kn.art.planned {
		return kn.art.run(m, args...)
	}
	return kn.runPlanned(m, args...)
}

// runPlanned executes under the planner. A cold (hash, arch, bucket)
// key runs the default strategy, prices every admissible candidate
// from that run's op-count delta, and folds its timing in as the first
// probe — exploration is amortized over real invocations, never extra
// runs. Known keys execute whatever Decide returns (a calibration
// probe or the calibrated winner) and report the measured time back.
func (kn *Kernel) runPlanned(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	rt := kn.rt
	key := plan.Key{Hash: kn.art.hash, Arch: rt.Arch.Name, Bucket: plan.Bucket(footprint(args))}
	d, ok := rt.Planner.Decide(key)
	if !ok {
		before := m.Counts.Total()
		start := time.Now()
		out, err := kn.execStrategy(m, defaultSpec, args)
		elapsed := time.Since(start)
		if err != nil {
			return out, err
		}
		kn.installPlan(key, m.Counts.Total()-before)
		rt.Planner.Observe(key, defaultSpec, float64(elapsed.Nanoseconds()))
		return out, nil
	}
	start := time.Now()
	out, err := kn.execStrategy(m, d.Spec, args)
	if err == nil {
		rt.Planner.Observe(key, d.Spec, float64(time.Since(start).Nanoseconds()))
	}
	return out, err
}

// installPlan prices the admissible strategies for one cold key from
// a measured single-invocation op-count delta and registers the plan.
// The default strategy is always first (Install keeps it unpruned).
func (kn *Kernel) installPlan(key plan.Key, deltaOps int64) {
	rt := kn.rt
	f := kn.art.f
	specs := make([]machine.StrategySpec, 0, 3)
	specs = append(specs, defaultSpec)
	if kn.art.exec != nil {
		specs = append(specs, machine.StrategySpec{Backend: "native", Lanes: 1})
	}
	if w := rt.Machine.Workers; w > 1 && machine.ParallelEligible(f) {
		specs = append(specs, machine.StrategySpec{Backend: "vm", Lanes: w})
	}
	counts := vm.Counter{"ops": deltaOps}
	costs := rt.estimator().PredictStrategies(f, counts, specs)
	rt.Planner.Install(key, f.Name, costs)
}

// execStrategy runs one invocation under an explicit strategy. The
// serial strategies force the machine's lane budget off so a runtime
// configured with workers still measures a true serial baseline; the
// parallel strategy installs the planner's lane count and chunk hint
// for the duration of the call.
func (kn *Kernel) execStrategy(m *vm.Machine, s machine.StrategySpec, args []vm.Value) (vm.Value, error) {
	if s.Backend == "native" && kn.art.exec != nil {
		out, err := kn.art.exec.Run(m, args...)
		if !errors.Is(err, backend.ErrFallback) {
			return out, err
		}
		// The executable declined this particular call (cache simulator
		// attached, argument shape mismatch): the interpreter serves it.
	}
	savedW, savedH := m.Workers, m.ChunkHint
	if s.Lanes > 1 {
		m.Workers, m.ChunkHint = s.Lanes, int64(s.Chunk)
	} else {
		m.Workers, m.ChunkHint = 0, 0
	}
	out, err := kn.art.prog.Run(m, args...)
	m.Workers, m.ChunkHint = savedW, savedH
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
