package machine

import (
	"runtime"
	"strconv"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Strategy prediction: pricing the admissible execution strategies of
// one kernel invocation before any of them has run. The modeled cycle
// estimate (Estimate) is strategy-invariant — every lane count and
// backend executes the identical op stream — so what distinguishes
// strategies is the host's own mechanism cost: interpreter dispatch per
// op, the fixed managed↔native crossing the paper models for JNI (plus the
// plugin call itself) on the native backend, and goroutine startup +
// counter merge for sharded parallel loops. The constants below are
// mechanism estimates for the reproduction host, deliberately rough:
// they only need to rank strategies well enough for cold-start
// decisions, because online calibration (internal/plan) replaces them
// with exponentially-smoothed measurements after the first probe runs.
const (
	// HostNsOpt is the interpreter dispatch cost per counted op on the
	// opt tier.
	HostNsOpt = 30.0
	// HostNsNative is the per-op cost on the native plugin backend. The
	// plugin still drives the counted software-SIMD machine (counts
	// must stay byte-identical), so it shaves dispatch, not execution.
	HostNsNative = 24.0
	// HostParStartupNs and HostParLaneNs price a sharded loop: one
	// fixed scheduler startup plus a per-lane term covering goroutine
	// spawn, the runtime address probe, and the post-join counter merge
	// (kernelc shards into 4 chunks per lane; the merge walks each
	// chunk's private counter).
	HostParStartupNs = 8000.0
	HostParLaneNs    = 12000.0
)

// CrossingNs is the fixed managed↔native boundary cost per invocation
// in nanoseconds — the paper's JNI crossing, priced from the modeled
// microarchitecture's cycle cost at its base clock.
func CrossingNs(a *isa.Microarch) float64 {
	return a.JNICycles / a.BaseGHz
}

// StrategySpec names one admissible execution configuration: which
// backend runs the kernel, and how many parallel lanes (1 = serial).
type StrategySpec struct {
	Backend string `json:"backend"`
	Lanes   int    `json:"lanes"`
}

// String renders the spec the way planner tables print it.
func (s StrategySpec) String() string {
	return s.Backend + "/" + strconv.Itoa(s.Lanes)
}

// StrategyCost is one priced strategy: the host-mechanism prediction
// the planner ranks by, alongside the (strategy-invariant) model
// report for display.
type StrategyCost struct {
	Spec StrategySpec `json:"spec"`
	// HostNs is the predicted wall-clock nanoseconds for one invocation
	// under this strategy on the reproduction host.
	HostNs float64 `json:"host_ns"`
}

// PredictStrategies prices each admissible strategy for one kernel
// invocation whose dynamic op counts (a single-invocation delta) and
// working-set footprint are known. The returned slice parallels specs;
// it is not sorted — callers rank by HostNs.
func (e *Estimator) PredictStrategies(f *ir.Func, counts vm.Counter, specs []StrategySpec) []StrategyCost {
	total := float64(counts.Total())
	out := make([]StrategyCost, len(specs))
	ncpu := float64(runtime.NumCPU())
	for i, s := range specs {
		perOp := HostNsOpt
		if s.Backend == "native" {
			perOp = HostNsNative
		}
		ns := total * perOp
		if s.Backend == "native" {
			ns += CrossingNs(e.Arch)
		}
		if s.Lanes > 1 {
			eff := float64(s.Lanes)
			if eff > ncpu {
				eff = ncpu
			}
			if eff < 1 {
				eff = 1
			}
			ns = ns/eff + HostParStartupNs + float64(s.Lanes)*HostParLaneNs
		}
		out[i] = StrategyCost{Spec: s, HostNs: ns}
	}
	return out
}
