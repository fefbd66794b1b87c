package kernelc

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

// saxpyInputs builds one SAXPY call's buffers and argument list.
func saxpyInputs(n int) (*vm.Buffer, []vm.Value) {
	av := make([]float32, n)
	bv := make([]float32, n)
	for i := range av {
		av[i] = float32(i) * 0.25
		bv[i] = float32(n - i)
	}
	aBuf, bBuf := vm.PinF32(av), vm.PinF32(bv)
	return aBuf, []vm.Value{vm.PtrValue(aBuf, 0), vm.PtrValue(bBuf, 0),
		vm.F32Value(1.5), vm.IntValue(n)}
}

// TestFusionPreservesSemantics compares the fused program against a
// fusion-disabled compile of the same graph: identical results,
// identical memory contents, identical instruction counters.
func TestFusionPreservesSemantics(t *testing.T) {
	k := stageSaxpy(t)
	fused, err := compile(k.F, TierPlain, true)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := compile(k.F, TierPlain, false)
	if err != nil {
		t.Fatal(err)
	}
	if fused.FusedOps() == 0 {
		t.Fatal("SAXPY must fuse at least one load→op or op→store pair")
	}
	if plain.FusedOps() != 0 {
		t.Fatalf("fusion-disabled compile reports %d fused ops", plain.FusedOps())
	}

	for _, n := range []int{8, 37, 256} {
		aF, argsF := saxpyInputs(n)
		aP, argsP := saxpyInputs(n)
		mF, mP := haswell(), haswell()
		if _, err := fused.Run(mF, argsF...); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Run(mP, argsP...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aF.Data, aP.Data) {
			t.Fatalf("n=%d: fused and unfused programs disagree on memory", n)
		}
		if !reflect.DeepEqual(mF.Counts, mP.Counts) {
			t.Fatalf("n=%d: counters diverge\nfused:   %v\nunfused: %v",
				n, mF.Counts, mP.Counts)
		}
	}
}

// TestFrameReuseIsClean runs one program repeatedly and concurrently:
// pooled register frames must never leak state between runs.
func TestFrameReuseIsClean(t *testing.T) {
	k := stageSaxpy(t)
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}

	const n = 37
	aBuf, args := saxpyInputs(n)
	if _, err := p.Run(haswell(), args...); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), aBuf.Data...)

	// Sequential reuse: identical fresh inputs, identical outputs.
	for r := 0; r < 4; r++ {
		aBuf2, args2 := saxpyInputs(n)
		if _, err := p.Run(haswell(), args2...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aBuf2.Data, want) {
			t.Fatalf("rep %d: pooled frame leaked state into the result", r)
		}
	}

	// Concurrent reuse: one Program, many machines (run with -race).
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 16; r++ {
				aBufG, argsG := saxpyInputs(n)
				if _, err := p.Run(vm.NewMachine(isa.Haswell), argsG...); err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(aBufG.Data, want) {
					errs[g] = errors.New("concurrent run produced wrong output")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// operandLeaves are the values a fused-operand case computes from: two
// floats, two ints and a mutable float array.
type operandLeaves struct {
	k    *dsl.Kernel
	x, y dsl.F32
	n, m dsl.Int
	p    dsl.PF32
}

// fusedOperandCases each stage one single-use producer right before the
// consumer operand it feeds, and return the scalar result (nil for a
// store). fused is how many producers the straight-line form fuses: one
// per case, two where a chain feeds the consumer.
var fusedOperandCases = []struct {
	name  string
	fused int
	build func(l operandLeaves) ir.Exp
}{
	{"unary", 1, func(l operandLeaves) ir.Exp { return l.x.Add(l.y).Neg().E }},
	{"binary/0", 1, func(l operandLeaves) ir.Exp { return l.n.MulC(3).Sub(l.m).E }},
	{"binary/1", 1, func(l operandLeaves) ir.Exp { return l.m.Sub(l.n.MulC(3)).E }},
	{"compare/0", 1, func(l operandLeaves) ir.Exp { return l.n.MulC(3).Lt(l.m).E }},
	{"compare/1", 1, func(l operandLeaves) ir.Exp { return l.m.Lt(l.n.MulC(3)).E }},
	{"conv", 1, func(l operandLeaves) ir.Exp { return l.n.MulC(3).ToF32().E }},
	{"aload/ptr", 1, func(l operandLeaves) ir.Exp { return l.p.Plus(l.n).At(l.m).E }},
	{"aload/idx", 1, func(l operandLeaves) ir.Exp { return l.p.At(l.n.Add(l.m)).E }},
	{"astore/ptr", 1, func(l operandLeaves) ir.Exp { l.p.Plus(l.n).Set(l.m, l.x); return nil }},
	{"astore/idx", 1, func(l operandLeaves) ir.Exp { l.p.Set(l.n.Add(l.m), l.x); return nil }},
	{"astore/val", 1, func(l operandLeaves) ir.Exp { l.p.Set(l.m, l.x.Mul(l.y)); return nil }},
	{"ptradd/ptr", 2, func(l operandLeaves) ir.Exp { return l.p.Plus(l.n).Plus(l.m).At(l.k.ConstInt(0)).E }},
	{"ptradd/idx", 2, func(l operandLeaves) ir.Exp { return l.p.Plus(l.n.Add(l.m)).At(l.k.ConstInt(0)).E }},
	{"intrinsic/scalar", 2, func(l operandLeaves) ir.Exp { return l.k.MMCvtssF32(l.k.MMSet1Ps(l.x.Mul(l.y))).E }},
	{"intrinsic/ptr", 3, func(l operandLeaves) ir.Exp { return l.k.MMCvtssF32(l.k.MMLoaduPs(l.p.Plus(l.n), l.m)).E }},
	{"intrinsic/into-scalar", 2, func(l operandLeaves) ir.Exp { return l.k.MMCvtssF32(l.k.MMSet1Ps(l.x)).Add(l.y).E }},
}

// stageOperandStraight stages a case over parameters, in the root block,
// where the case's producers are the only fusable nodes.
func stageOperandStraight(build func(operandLeaves) ir.Exp) *dsl.Kernel {
	k := dsl.NewKernel("operand", isa.Haswell.Features)
	l := operandLeaves{k: k, p: dsl.Mutable(k, k.ParamF32Ptr())}
	l.x, l.y, l.n, l.m = k.ParamF32(), k.ParamF32(), k.ParamInt(), k.ParamInt()
	if e := build(l); e != nil {
		k.F.G.Root().Result = e
	}
	return k
}

// stageOperandLoop stages a case in a loop body over leaves loaded per
// iteration, so neither tier's loop plan claims the producers, and
// stores a scalar result at the iteration's index.
func stageOperandLoop(build func(operandLeaves) ir.Exp) *dsl.Kernel {
	k := dsl.NewKernel("operandloop", isa.Haswell.Features)
	p := dsl.Mutable(k, k.ParamF32Ptr())
	xs, ys := k.ParamF32Ptr(), k.ParamF32Ptr()
	ns, ms := k.ParamI32Ptr(), k.ParamI32Ptr()
	fo, io := dsl.Mutable(k, k.ParamF32Ptr()), dsl.Mutable(k, k.ParamI32Ptr())
	cnt := k.ParamInt()
	k.For(k.ConstInt(0), cnt, 1, func(i dsl.Int) {
		e := build(operandLeaves{k: k, p: p, x: xs.At(i), y: ys.At(i), n: ns.At(i), m: ms.At(i)})
		switch {
		case e == nil:
		case e.Type().IsFloat():
			fo.Set(i, dsl.F32{K: k, E: e})
		case e.Type().Kind == ir.KindBool:
			io.Set(i, dsl.Int{K: k, E: k.F.G.Conv(e, ir.TI32)})
		default:
			io.Set(i, dsl.Int{K: k, E: e})
		}
	})
	return k
}

// TestFusedOperandPositions pins destination passing operand by
// operand: a single-use producer fused into each position of each
// consumer shape must leave results, buffers and counts exactly as the
// unfused compile does, at both tiers.
func TestFusedOperandPositions(t *testing.T) {
	const iters = 6
	straightArgs := func() ([]*vm.Buffer, []vm.Value) {
		pv := make([]float32, 16)
		for i := range pv {
			pv[i] = float32(i)*0.75 - 3
		}
		p := vm.PinF32(pv)
		return []*vm.Buffer{p}, []vm.Value{vm.PtrValue(p, 0),
			vm.F32Value(1.5), vm.F32Value(-2.25), vm.IntValue(3), vm.IntValue(2)}
	}
	loopArgs := func() ([]*vm.Buffer, []vm.Value) {
		pv, xv, yv := make([]float32, 16), make([]float32, iters), make([]float32, iters)
		nv, mv := make([]int32, iters), make([]int32, iters)
		for i := range pv {
			pv[i] = float32(i)*0.5 + 1
		}
		for i := 0; i < iters; i++ {
			xv[i], yv[i] = float32(i)-2.5, float32(3*i)*0.25
			nv[i], mv[i] = int32(i%4), int32((3*i)%5)
		}
		bufs := []*vm.Buffer{vm.PinF32(pv), vm.PinF32(xv), vm.PinF32(yv),
			vm.PinI32(nv), vm.PinI32(mv), vm.NewBuffer(isa.PrimF32, iters), vm.NewBuffer(isa.PrimI32, iters)}
		args := make([]vm.Value, 0, len(bufs)+1)
		for _, b := range bufs {
			args = append(args, vm.PtrValue(b, 0))
		}
		return bufs, append(args, vm.IntValue(iters))
	}
	forms := []struct {
		name  string
		stage func(func(operandLeaves) ir.Exp) *dsl.Kernel
		args  func() ([]*vm.Buffer, []vm.Value)
		exact bool // the case's producers are the only fusions
	}{
		{"straight", stageOperandStraight, straightArgs, true},
		{"loop", stageOperandLoop, loopArgs, false},
	}
	for _, tc := range fusedOperandCases {
		for _, form := range forms {
			t.Run(tc.name+"/"+form.name, func(t *testing.T) {
				f := form.stage(tc.build).F
				run := func(p *Program) (vm.Value, []*vm.Buffer, vm.Counter) {
					bufs, args := form.args()
					m := haswell()
					out, err := p.Run(m, args...)
					if err != nil {
						t.Fatal(err)
					}
					return out, bufs, m.Counts
				}
				ref, err := compile(f, TierPlain, false)
				if err != nil {
					t.Fatal(err)
				}
				wantOut, wantBufs, wantCounts := run(ref)
				for _, tier := range []Tier{TierOpt, TierPlain} {
					for _, fuse := range []bool{true, false} {
						p, err := compile(f, tier, fuse)
						if err != nil {
							t.Fatal(err)
						}
						what := fmt.Sprintf("%v fuse=%v", tier, fuse)
						switch {
						case !fuse && p.FusedOps() != 0:
							t.Fatalf("%s: unfused compile reports %d fused ops", what, p.FusedOps())
						case fuse && form.exact && p.FusedOps() != tc.fused:
							t.Fatalf("%s: %d fused ops, want %d", what, p.FusedOps(), tc.fused)
						case fuse && p.FusedOps() == 0:
							t.Fatalf("%s: nothing fused", what)
						}
						out, bufs, counts := run(p)
						if !sameValue(out, wantOut) {
							t.Errorf("%s: result %+v, want %+v", what, out, wantOut)
						}
						for i := range bufs {
							if !bytes.Equal(bufs[i].Data, wantBufs[i].Data) {
								t.Errorf("%s: buffer %d differs from the unfused run", what, i)
							}
						}
						if !reflect.DeepEqual(counts, wantCounts) {
							t.Errorf("%s: counts diverge\ngot:  %v\nwant: %v", what, counts, wantCounts)
						}
					}
				}
			})
		}
	}
}
