package kernelc_test

import (
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// TestFigureKernelsBound: every intrinsic node the benchmark's library
// kernels and the served dot32 kernel execute has a lane binding, so
// kernelc calls its kernel on the frame's registers and none takes the
// operand-gathering path through vm.Intrinsic.Fn.
func TestFigureKernelsBound(t *testing.T) {
	staged := map[string]func() (*dsl.Kernel, error){
		"saxpy":       func() (*dsl.Kernel, error) { return kernels.StagedSaxpy(isa.Haswell.Features), nil },
		"mmm_blocked": func() (*dsl.Kernel, error) { return kernels.StagedMMM(isa.Haswell.Features), nil },
		"dot8":        func() (*dsl.Kernel, error) { return kernels.StagedDot(8, isa.Haswell.Features) },
		"dot4":        func() (*dsl.Kernel, error) { return kernels.StagedDot(4, isa.Haswell.Features) },
		"dot32":       func() (*dsl.Kernel, error) { return kernels.StagedDot(32, isa.Haswell.Features) },
	}
	for name, stage := range staged {
		k, err := stage()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := kernelc.Compile(k.F); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sched := ir.Schedule(k.F)
		calls := 0
		var walk func(b *ir.Block)
		walk = func(b *ir.Block) {
			for _, n := range sched.Keep[b] {
				if ir.IsIntrinsicOp(n.Def.Op) {
					calls++
					if in, ok := vm.Lookup(n.Def.Op); !ok || in.Lane == nil {
						t.Errorf("%s: %s has no lane binding", name, n.Def.Op)
					}
				}
				for _, blk := range n.Def.Blocks {
					walk(blk)
				}
			}
		}
		walk(k.F.G.Root())
		if calls == 0 {
			t.Errorf("%s: no intrinsic node", name)
		}
	}
}
