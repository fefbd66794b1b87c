// Steady-state allocation guards for the figure hot paths. The
// residual Figure 6a allocations are one-time specification synthesis
// amortized over the benchmark loop, not per-call garbage. These tests
// pin the invariant the perf reports rely on: after warmup, a kernel
// invocation and its model estimate allocate nothing.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/vm"
)

// TestFig6aCallSteadyStateZeroAlloc: the Figure 6a measured path — a
// compiled SAXPY invocation with prebuilt argument values — must be
// allocation-free at steady state for the smallest figure size.
func TestFig6aCallSteadyStateZeroAlloc(t *testing.T) {
	rt := core.DefaultRuntime()
	kn, err := rt.Compile(kernels.StagedSaxpy(rt.Arch.Features))
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 // smallest Figure 6a bucket (2^6)
	a := vm.PinF32(make([]float32, n))
	y := vm.PinF32(make([]float32, n))
	args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(y, 0),
		vm.F32Value(2.5), vm.IntValue(n)}

	// Warmup: first call pays one-time costs (verifier spec index,
	// frame-pool growth, counter key insertion).
	for i := 0; i < 3; i++ {
		if _, err := kn.CallValues(args...); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := kn.CallValues(args...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state SAXPY call allocates %.3f allocs/op, want 0", allocs)
	}
}

// TestKernelRunSteadyStateZeroAlloc: every shipped kernel, on both
// interpreter tiers, runs allocation-free once warm — frames, argument
// scratch and intermediate Values all live in pooled frame storage.
func TestKernelRunSteadyStateZeroAlloc(t *testing.T) {
	const n = 64
	for _, tg := range kernels.Targets() {
		arch := isa.Haswell
		if !arch.Features.Has(tg.Requires...) {
			arch = isa.SkylakeX
		}
		f, err := tg.Build(arch.Features)
		if err != nil {
			t.Fatal(err)
		}
		args, _, err := kernels.BuildArgs(f, n, n*n+512, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range []kernelc.Tier{kernelc.TierOpt, kernelc.TierPlain} {
			p, err := kernelc.CompileTier(f, tier)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/%v", tg.Name, tier), func(t *testing.T) {
				m := vm.NewMachine(arch)
				run := func() {
					if _, err := p.Run(m, args...); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 3; i++ {
					run()
				}
				if allocs := testing.AllocsPerRun(2, run); allocs != 0 {
					t.Errorf("steady-state Run allocates %.2f allocs/op, want 0", allocs)
				}
			})
		}
	}
}

// TestFig6aEstimateSteadyStateZeroAlloc: the model-estimate half of a
// sweep point (scaling counts and pricing them) must also be
// allocation-free once the estimator's scratch is warm — this is what
// keeps the sweep workers' measure loops out of the allocator.
func TestFig6aEstimateSteadyStateZeroAlloc(t *testing.T) {
	rt := core.DefaultRuntime()
	kn, err := rt.Compile(kernels.StagedSaxpy(rt.Arch.Features))
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	a := vm.PinF32(make([]float32, n))
	y := vm.PinF32(make([]float32, n))
	args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(y, 0),
		vm.F32Value(2.5), vm.IntValue(n)}
	if _, err := kn.CallValues(args...); err != nil {
		t.Fatal(err)
	}
	est := machine.NewEstimator(rt.Arch)
	counts := rt.Machine.Counts
	est.Estimate(kn.Func(), counts, 8*n) // warm the chain-analysis scratch
	allocs := testing.AllocsPerRun(100, func() {
		est.Estimate(kn.Func(), counts, 8*n)
	})
	if allocs != 0 {
		t.Fatalf("steady-state estimate allocates %.3f allocs/op, want 0", allocs)
	}
}
