package kernelc

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// firstSupporting picks the first microarchitecture whose feature set
// covers a target's unconditional ISA requirements, mirroring the skip
// decision Runtime.Compile makes via MissingISAs.
func firstSupporting(reqs []isa.Family) *isa.Microarch {
	for _, m := range isa.Microarchs() {
		if m.Features.Has(reqs...) {
			return m
		}
	}
	return nil
}

// fillBuffer writes deterministic, tier-independent data: benign float
// values for float buffers (so kernels exercise real arithmetic, not
// NaN propagation) and xorshift bytes for integer buffers.
func fillBuffer(b *vm.Buffer, seed uint64) {
	switch b.Prim {
	case isa.PrimF32:
		for i := 0; i < b.Len(); i++ {
			v := float32(i%23)*0.375 - 3.5 + float32(seed%7)
			binary.LittleEndian.PutUint32(b.Data[i*4:], math.Float32bits(v))
		}
	case isa.PrimF64:
		for i := 0; i < b.Len(); i++ {
			v := float64(i%23)*0.375 - 3.5 + float64(seed%7)
			binary.LittleEndian.PutUint64(b.Data[i*8:], math.Float64bits(v))
		}
	default:
		x := seed*2862933555777941757 + 3037000493
		for i := range b.Data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b.Data[i] = byte(x)
		}
	}
}

// kernelArgs builds one argument list for f from its parameter types:
// pointers get fresh filled buffers of elems elements, integer params
// get n, float params a fixed scalar. Two calls with the same seed
// produce bit-identical inputs in distinct buffers.
func kernelArgs(t *testing.T, f *ir.Func, n, elems int, seed uint64) ([]vm.Value, []*vm.Buffer) {
	t.Helper()
	var args []vm.Value
	var bufs []*vm.Buffer
	for _, p := range f.Params {
		switch p.Typ.Kind {
		case ir.KindPtr:
			b := vm.NewBuffer(p.Typ.Elem, elems)
			fillBuffer(b, seed+uint64(len(args)))
			bufs = append(bufs, b)
			args = append(args, vm.PtrValue(b, 0))
		case ir.KindI32:
			args = append(args, vm.IntValue(n))
		case ir.KindI64:
			args = append(args, vm.Value{Kind: ir.KindI64, I: int64(n)})
		case ir.KindF32:
			args = append(args, vm.F32Value(1.5))
		case ir.KindF64:
			args = append(args, vm.F64Value(1.5))
		default:
			t.Fatalf("%s: no argument recipe for parameter kind %v", f.Name, p.Typ.Kind)
		}
	}
	return args, bufs
}

// sameValue compares run results without tripping over buffer identity
// or NaN: pointer results compare their backing bytes, floats compare
// bit patterns (NaN == NaN here — both tiers run identical scalar
// code, so even NaN payloads must match).
func sameValue(a, b vm.Value) bool {
	if a.Mem != nil || b.Mem != nil {
		return (a.Mem == nil) == (b.Mem == nil) && a.Kind == b.Kind &&
			a.Off == b.Off && bytes.Equal(a.Mem.Data, b.Mem.Data)
	}
	af, bf := a, b
	af.F, bf.F = 0, 0
	return af == bf && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestOptimizerDifferentialAllKernels is the optimizer's ground truth:
// every shipped kernel, compiled at both tiers, must agree on results,
// memory contents and — because the dynamic op counts feed the
// analytical cost model behind every figure — the exact counter map,
// across multiple sizes including a non-multiple-of-vector-width tail.
func TestOptimizerDifferentialAllKernels(t *testing.T) {
	targets := kernels.Targets()
	if len(targets) < 18 {
		t.Fatalf("expected the full 18-kernel registry, got %d", len(targets))
	}
	for _, tgt := range targets {
		t.Run(tgt.Name, func(t *testing.T) {
			arch := firstSupporting(tgt.Requires)
			if arch == nil {
				t.Skipf("no microarchitecture supports %v", tgt.Requires)
			}
			f, err := tgt.Build(arch.Features)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := CompileTier(f, TierOpt)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := CompileTier(f, TierPlain)
			if err != nil {
				t.Fatal(err)
			}
			square := strings.Contains(strings.ToLower(tgt.Name), "mmm")
			for _, n := range []int{8, 32, 33} {
				elems := n
				if square {
					elems = n * n
				}
				argsO, bufsO := kernelArgs(t, f, n, elems, 42)
				argsP, bufsP := kernelArgs(t, f, n, elems, 42)
				mO, mP := vm.NewMachine(arch), vm.NewMachine(arch)
				outO, errO := opt.Run(mO, argsO...)
				outP, errP := plain.Run(mP, argsP...)
				if (errO == nil) != (errP == nil) ||
					(errO != nil && errO.Error() != errP.Error()) {
					t.Fatalf("n=%d: tiers disagree on errors:\nopt:   %v\nplain: %v",
						n, errO, errP)
				}
				if !sameValue(outO, outP) {
					t.Fatalf("n=%d: results diverge:\nopt:   %+v\nplain: %+v",
						n, outO, outP)
				}
				for i := range bufsO {
					if !bytes.Equal(bufsO[i].Data, bufsP[i].Data) {
						t.Fatalf("n=%d: buffer %d contents diverge", n, i)
					}
				}
				if !reflect.DeepEqual(mO.Counts, mP.Counts) {
					t.Fatalf("n=%d: dynamic op counts diverge:\nopt:   %v\nplain: %v",
						n, mO.Counts, mP.Counts)
				}
			}
		})
	}
}

// stageLICM builds a loop whose body contains one clearly invariant
// subexpression (n*n+7) and one affine address chain (i*4), so the unit
// tests below can pin down exactly what each optimisation claims.
func stageLICM(t *testing.T) *dsl.Kernel {
	t.Helper()
	k := dsl.NewKernel("licm_probe", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamI32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		inv := n.Mul(n).Add(k.ConstInt(7))
		a.Set(i, inv.Add(i.Mul(k.ConstInt(4))))
	})
	return k
}

// TestHoistAndStrengthReduceClaims checks the optimizer recognises the
// staged shapes: the invariant chain hoists, the affine chain strength-
// reduces, and the plain tier reports zero for both.
func TestHoistAndStrengthReduceClaims(t *testing.T) {
	k := stageLICM(t)
	opt, err := CompileTier(k.F, TierOpt)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Hoisted() < 2 {
		t.Errorf("n*n+7 should hoist two nodes, got Hoisted()=%d", opt.Hoisted())
	}
	if opt.Strength() < 1 {
		t.Errorf("i*4 should strength-reduce, got Strength()=%d", opt.Strength())
	}
	plain, err := CompileTier(k.F, TierPlain)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hoisted() != 0 || plain.Strength() != 0 {
		t.Errorf("plain tier must not optimize: hoisted=%d strength=%d",
			plain.Hoisted(), plain.Strength())
	}

	// The claims must not change observable behaviour, including for the
	// empty loop (entry work is guarded by start < end).
	for _, n := range []int{0, 1, 13} {
		bO := vm.NewBuffer(isa.PrimI32, 16)
		bP := vm.NewBuffer(isa.PrimI32, 16)
		mO, mP := haswell(), haswell()
		if _, err := opt.Run(mO, vm.PtrValue(bO, 0), vm.IntValue(n)); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Run(mP, vm.PtrValue(bP, 0), vm.IntValue(n)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bO.Data, bP.Data) {
			t.Fatalf("n=%d: memory diverges", n)
		}
		if !reflect.DeepEqual(mO.Counts, mP.Counts) {
			t.Fatalf("n=%d: counts diverge\nopt:   %v\nplain: %v", n, mO.Counts, mP.Counts)
		}
	}
}

// TestFusedChainLength checks chain fusion extends past pairs: SAXPY's
// load→load→fma→store body fuses into a chain the compiler reports.
func TestFusedChainLength(t *testing.T) {
	k := stageSaxpy(t)
	p, err := CompileTier(k.F, TierOpt)
	if err != nil {
		t.Fatal(err)
	}
	if p.FusedChains() == 0 {
		t.Fatalf("SAXPY must fuse at least one chain of length >= 2 (FusedOps=%d)",
			p.FusedOps())
	}
}

// TestNegativeDegreeShapes pins down inputs the optimizer must refuse:
// accumulator chains (carried value is a body param) and i64-typed
// affine expressions (the incremental update wraps at 32 bits).
func TestNegativeDegreeShapes(t *testing.T) {
	k := dsl.NewKernel("acc_probe", isa.Haswell.Features)
	n := k.ParamInt()
	sum := k.ForAccInt(k.ConstInt(0), n, 1, k.ConstInt(0),
		func(i dsl.Int, acc dsl.Int) dsl.Int {
			return acc.Add(i)
		})
	k.Return(sum)
	p, err := CompileTier(k.F, TierOpt)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strength() != 0 || p.Hoisted() != 0 {
		t.Errorf("accumulator chain must stay in the body: hoisted=%d strength=%d",
			p.Hoisted(), p.Strength())
	}
	out, err := p.Run(haswell(), vm.IntValue(10))
	if err != nil {
		t.Fatal(err)
	}
	if out.I != 45 {
		t.Errorf("sum 0..9 = %d, want 45", out.I)
	}
}

// TestOptimizedRunZeroAllocs locks in the zero-alloc hot path: after
// warm-up, repeated Runs of an optimized program allocate nothing — the
// frame pool plus the per-frame vector arena absorb all vector traffic.
// A race build still runs the loop but does not assert the count (see
// raceEnabled).
func TestOptimizedRunZeroAllocs(t *testing.T) {
	k := stageSaxpy(t)
	p, err := CompileTier(k.F, TierOpt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	aBuf, args := saxpyInputs(n)
	_ = aBuf
	m := haswell()
	if _, err := p.Run(m, args...); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Run(m, args...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("optimized Run allocates %v times per call, want 0", allocs)
	}
}

// TestArenaAccounting checks the per-frame vector arena statistics move
// when loops run, at both tiers: they share one loop driver, so a
// plain-tier loop records its iterations' arena resets too.
func TestArenaAccounting(t *testing.T) {
	for _, tier := range []Tier{TierOpt, TierPlain} {
		t.Run(tier.String(), func(t *testing.T) {
			ResetArenaStats()
			k := stageSaxpy(t)
			p, err := CompileTier(k.F, tier)
			if err != nil {
				t.Fatal(err)
			}
			_, slots := ArenaStats()
			if slots == 0 {
				t.Error("compiling a vector kernel must reserve arena slots")
			}
			_, args := saxpyInputs(64)
			if _, err := p.Run(haswell(), args...); err != nil {
				t.Fatal(err)
			}
			// 64 elements: 8 vector iterations, no scalar tail.
			if resets, _ := ArenaStats(); resets != 8 {
				t.Errorf("running the loops recorded %d arena resets, want 8", resets)
			}
		})
	}
}

// BenchmarkSaxpyTiers measures the interpreter at both tiers
// (go test -bench SaxpyTiers ./internal/kernelc).
func BenchmarkSaxpyTiers(b *testing.B) {
	for _, tier := range []Tier{TierOpt, TierPlain} {
		b.Run(tier.String(), func(b *testing.B) {
			k := dsl.NewKernel("saxpy", isa.Haswell.Features)
			a := dsl.Mutable(k, k.ParamF32Ptr())
			bb := k.ParamF32Ptr()
			s := k.ParamF32()
			n := k.ParamInt()
			n0 := n.Shr(3).Shl(3)
			k.For(k.ConstInt(0), n0, 8, func(i dsl.Int) {
				va := k.MM256LoaduPs(a, i)
				vb := k.MM256LoaduPs(bb, i)
				k.MM256StoreuPs(a, i, k.MM256FmaddPs(vb, k.MM256Set1Ps(s), va))
			})
			k.For(n0, n, 1, func(i dsl.Int) {
				a.Set(i, a.At(i).Add(bb.At(i).Mul(s)))
			})
			p, err := CompileTier(k.F, tier)
			if err != nil {
				b.Fatal(err)
			}
			_, args := saxpyInputs(1024)
			m := haswell()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(m, args...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
