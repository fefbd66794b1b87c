package machine

import (
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

func predictSpecs() []StrategySpec {
	return []StrategySpec{
		{Backend: "vm", Lanes: 1},
		{Backend: "native", Lanes: 1},
		{Backend: "vm", Lanes: 4},
	}
}

// TestPredictStrategiesCrossover pins the qualitative shape the planner
// relies on: at tiny op counts the fixed managed↔native crossing makes
// the interpreter win; at large counts the native backend's cheaper
// dispatch amortizes it and wins.
func TestPredictStrategiesCrossover(t *testing.T) {
	e := NewEstimator(isa.Haswell)
	f := stagedLoop(t)

	price := func(ops int64) map[string]float64 {
		counts := vm.Counter{"ops": ops}
		out := map[string]float64{}
		for _, c := range e.PredictStrategies(f, counts, predictSpecs()) {
			out[c.Spec.String()] = c.HostNs
		}
		return out
	}

	small := price(10)
	if small["vm/1"] >= small["native/1"] {
		t.Fatalf("at 10 ops the crossing cost must dominate: vm %v, native %v",
			small["vm/1"], small["native/1"])
	}
	large := price(100000)
	if large["native/1"] >= large["vm/1"] {
		t.Fatalf("at 100k ops native dispatch must win: native %v, vm %v",
			large["native/1"], large["vm/1"])
	}
}

// TestCrossingNs pins the crossing price to the modeled
// microarchitecture's JNI cycles at base clock — the paper's fixed
// per-invocation boundary cost.
func TestCrossingNs(t *testing.T) {
	want := isa.Haswell.JNICycles / isa.Haswell.BaseGHz
	if got := CrossingNs(isa.Haswell); got != want {
		t.Fatalf("CrossingNs = %v, want %v", got, want)
	}
	if CrossingNs(isa.Haswell) <= 0 {
		t.Fatal("crossing cost must be positive")
	}
}

// TestParallelPricing: lanes divide the work term but charge startup
// and per-lane overhead, so small kernels must price parallel slower
// than serial.
func TestParallelPricing(t *testing.T) {
	e := NewEstimator(isa.Haswell)
	f := stagedLoop(t)
	counts := vm.Counter{"ops": 100}
	got := e.PredictStrategies(f, counts, predictSpecs())
	var serial, par float64
	for _, c := range got {
		switch c.Spec.String() {
		case "vm/1":
			serial = c.HostNs
		case "vm/4":
			par = c.HostNs
		}
	}
	if par <= serial {
		t.Fatalf("100-op kernel priced parallel (%v) under serial (%v)", par, serial)
	}
	if par < HostParStartupNs {
		t.Fatalf("parallel price %v below the fixed startup term", par)
	}
}

// stagedLoop stages a minimal independent elementwise loop.
func stagedLoop(t *testing.T) *ir.Func {
	t.Helper()
	k := dsl.NewKernel("pred_loop", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	n := k.ParamInt()
	two := k.MM256Set1Ps(k.ConstF32(2))
	k.For(k.ConstInt(0), n, 8, func(i dsl.Int) {
		k.MM256StoreuPs(a, i, k.MM256MulPs(k.MM256LoaduPs(a, i), two))
	})
	return k.F
}
