package kernelc

import (
	"testing"

	"repro/internal/dsl"
	"repro/internal/isa"
	"repro/internal/vm"
)

// Lifetime tests for the frame's vector register file. An intrinsic
// writes its vector result into its node's slot, so any value that
// outlives the next execution of that node must have been copied out:
// a loop-carried accumulator, a parallel lane's partial, and a vector
// returned from a pooled frame.

// stageCarryReadAfterNext carries a vector accumulator whose body reads
// acc after the node that produces the next acc: each iteration stores
// next - acc, which is i in every lane only if acc still holds the
// previous iteration's value. The kernel returns the final acc.
func stageCarryReadAfterNext() *dsl.Kernel {
	k := dsl.NewKernel("carry_read_after_next", isa.Haswell.Features)
	out := dsl.Mutable(k, k.ParamI32Ptr())
	n := k.ParamInt()
	acc := k.ForAccM256i(k.ConstInt(0), n, 1, k.MM256Set1Epi32(k.ConstInt(1)),
		func(i dsl.Int, acc dsl.M256i) dsl.M256i {
			next := k.MM256AddEpi32(acc, k.MM256Set1Epi32(i))
			k.MM256StoreuSi256(out, i.Mul(k.ConstInt(8)), k.MM256SubEpi32(next, acc))
			return next
		})
	k.Return(acc)
	return k
}

// wantLanes checks that all 8 i32 lanes of v equal want.
func wantLanes(t *testing.T, what string, v vm.Value, want int32) {
	t.Helper()
	if v.V == nil {
		t.Fatalf("%s: not a vector: %+v", what, v)
	}
	for l := 0; l < 8; l++ {
		if got := v.V.I32(l); got != want {
			t.Fatalf("%s: lane %d = %d, want %d", what, l, got, want)
		}
	}
}

func TestCarriedVectorKeepsPreviousIteration(t *testing.T) {
	k := stageCarryReadAfterNext()
	for _, tier := range []Tier{TierPlain, TierOpt} {
		p, err := CompileTier(k.F, tier)
		if err != nil {
			t.Fatal(err)
		}
		const n = 10
		buf := vm.NewBuffer(isa.PrimI32, 8*n)
		res, err := p.Run(haswell(), vm.PtrValue(buf, 0), vm.IntValue(n))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8*n; i++ {
			if got := buf.IntAt(i); got != int64(i/8) {
				t.Fatalf("tier %v: out[%d] = next-acc = %d, want %d", tier, i, got, i/8)
			}
		}
		wantLanes(t, tier.String()+" result", res, 1+n*(n-1)/2)
	}
}

// TestReturnedVectorOutlivesNextRun: a returned vector must not point
// into the pooled frame, which the next Run reuses.
func TestReturnedVectorOutlivesNextRun(t *testing.T) {
	k := stageCarryReadAfterNext()
	for _, tier := range []Tier{TierPlain, TierOpt} {
		p, err := CompileTier(k.F, tier)
		if err != nil {
			t.Fatal(err)
		}
		buf := vm.NewBuffer(isa.PrimI32, 8*20)
		first, err := p.Run(haswell(), vm.PtrValue(buf, 0), vm.IntValue(4))
		if err != nil {
			t.Fatal(err)
		}
		second, err := p.Run(haswell(), vm.PtrValue(buf, 0), vm.IntValue(20))
		if err != nil {
			t.Fatal(err)
		}
		wantLanes(t, tier.String()+" first run", first, 1+4*3/2)
		wantLanes(t, tier.String()+" second run", second, 1+20*19/2)
	}
}

// TestParallelVectorReductionLanes shards a lanewise vector sum over two
// lanes with several chunks each: every chunk's partial must survive
// the lane's next chunk, which rewrites the lane frame's accumulator
// slot, and the lane frame's return to the pool. The Makefile's race
// target runs it repeatedly.
func TestParallelVectorReductionLanes(t *testing.T) {
	forcePar(t)
	k := dsl.NewKernel("par_vec_sum", isa.Haswell.Features)
	a := k.ParamI32Ptr()
	sum := k.ForAccM256i(k.ConstInt(0), k.ParamInt(), 1, k.MM256Set1Epi32(k.ConstInt(3)),
		func(i dsl.Int, acc dsl.M256i) dsl.M256i {
			return k.MM256AddEpi32(acc, k.MM256LoaduSi256(a, i.Mul(k.ConstInt(8))))
		})
	k.Return(sum)
	p, err := CompileTier(k.F, TierOpt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 // 8 chunks: 4 per lane
	buf := vm.NewBuffer(isa.PrimI32, 8*n)
	for i := 0; i < 8*n; i++ {
		buf.SetIntAt(i, int64(i%8+i/8))
	}
	serial, err := p.Run(haswell(), vm.PtrValue(buf, 0), vm.IntValue(n))
	if err != nil {
		t.Fatal(err)
	}
	_, runs0, _, chunks0, _ := ParStats()
	par, err := p.Run(parMachine(isa.Haswell, 2), vm.PtrValue(buf, 0), vm.IntValue(n))
	if err != nil {
		t.Fatal(err)
	}
	_, runs1, _, chunks1, _ := ParStats()
	if runs1 == runs0 || chunks1-chunks0 < 4 {
		t.Fatalf("reduction did not shard into several chunks per lane (runs %d→%d, chunks %d→%d)",
			runs0, runs1, chunks0, chunks1)
	}
	if !par.Equal(serial) {
		t.Fatalf("sharded vector sum %v differs from serial %v", par.V, serial.V)
	}
	for l := 0; l < 8; l++ {
		if want := int32(3 + n*l + n*(n-1)/2); serial.V.I32(l) != want {
			t.Fatalf("serial lane %d = %d, want %d", l, serial.V.I32(l), want)
		}
	}
}
