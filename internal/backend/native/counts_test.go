package native

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/dsl"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// stageBranchy stages a loop whose body branches on its index, the
// else arm running a nested loop (kernelc's count-table tests stage
// the same kernel).
func stageBranchy() *dsl.Kernel {
	k := dsl.NewKernel("branchy", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		k.If(i.Lt(k.ConstInt(5)), func() {
			a.Set(i, a.At(i).Add(k.ConstF32(1)))
		}, func() {
			k.For(k.ConstInt(0), i, 1, func(j dsl.Int) {
				a.Set(j, a.At(i).Mul(k.ConstF32(2)))
			})
		})
	})
	return k
}

// TestNativeCountTableMatchesVM holds the plugin's dense counts to the
// interpreter's on the count table's edge cases, which kernelc's
// TestCountTableCounts pins to exact counters: zero-trip loops (saxpy
// at a multiple of 8, and at 0), a fault in the first loop and in the
// tail, nested loops and a fault mid-nest (mmm_blocked), and if arms,
// with a fault after both ran. Results, memory, error text and the
// counter — keys included, on a counter that already holds an entry —
// must be identical.
func TestNativeCountTableMatchesVM(t *testing.T) {
	be := New()
	if err := be.Available(); err != nil {
		t.Skipf("native backend unavailable on this host: %v", err)
	}
	saxpy := kernels.StagedSaxpy(isa.Haswell.Features)
	mmm := kernels.StagedMMM(isa.Haswell.Features)
	branchy := stageBranchy()
	for _, c := range []struct {
		name     string
		k        *dsl.Kernel
		n, elems int
	}{
		{"saxpy zero-trip tail", saxpy, 64, 64},
		{"saxpy zero-trip loops", saxpy, 0, 8},
		{"saxpy fault in the first loop", saxpy, 64, 40},
		{"saxpy fault in the tail", saxpy, 67, 66},
		{"mmm_blocked nested", mmm, 16, 256},
		{"mmm_blocked fault mid-nest", mmm, 32, 1000},
		{"branchy if arms", branchy, 9, 16},
		{"branchy fault after arms", branchy, 17, 16},
	} {
		nat, err := be.Compile(c.k.F)
		if err != nil {
			t.Fatalf("%s: native compile: %v", c.name, err)
		}
		interp, err := kernelc.Compile(c.k.F)
		if err != nil {
			t.Fatal(err)
		}
		argsI, bufsI := kernelArgs(t, c.k.F, c.n, c.elems, 7)
		argsN, bufsN := kernelArgs(t, c.k.F, c.n, c.elems, 7)
		mI, mN := vm.NewMachine(isa.Haswell), vm.NewMachine(isa.Haswell)
		mI.Counts.Add("earlier", 3)
		mN.Counts.Add("earlier", 3)
		outI, errI := interp.Run(mI, argsI...)
		outN, errN := nat.Run(mN, argsN...)
		if (errI == nil) != (errN == nil) || (errI != nil && errI.Error() != errN.Error()) {
			t.Fatalf("%s: error divergence:\nvm:     %v\nnative: %v", c.name, errI, errN)
		}
		if !sameValue(outI, outN) {
			t.Errorf("%s: results diverge: vm %+v, native %+v", c.name, outI, outN)
		}
		for i := range bufsI {
			if !bytes.Equal(bufsI[i].Data, bufsN[i].Data) {
				t.Errorf("%s: buffer %d contents diverge", c.name, i)
			}
		}
		if !reflect.DeepEqual(mI.Counts, mN.Counts) {
			t.Errorf("%s: counts diverge:\nvm:     %v\nnative: %v", c.name, mI.Counts, mN.Counts)
		}
	}
}

// TestNativeRunZeroAllocs: the crossing is typed and its scratch
// pooled, and the counts are dense until the one flush per call, so a
// steady-state native call allocates nothing.
func TestNativeRunZeroAllocs(t *testing.T) {
	be := New()
	if err := be.Available(); err != nil {
		t.Skipf("native backend unavailable on this host: %v", err)
	}
	f := kernels.StagedSaxpy(isa.Haswell.Features).F
	nat, err := be.Compile(f)
	if err != nil {
		t.Fatalf("native compile: %v", err)
	}
	args, _ := kernelArgs(t, f, 128, 128, 1)
	m := vm.NewMachine(isa.Haswell)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := nat.Run(m, args...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("native Run allocates %v times per call, want 0", allocs)
	}
}
