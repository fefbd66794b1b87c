package hotspot

import (
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

// TestCountProofRefusesDataDependence: each kernel lets a value read
// from memory (or a float parameter) steer control or addressing, so
// its counts or its error outcome could change with the data; the proof
// must refuse it and CountKey must report ok=false at every tier.
func TestCountProofRefusesDataDependence(t *testing.T) {
	hw := isa.Haswell.Features
	cases := []struct {
		name  string
		build func() *ir.Func
		want  string // fragment of the refusal reason
	}{
		{"loaded loop bound", func() *ir.Func {
			k := dsl.NewKernel("loadedBound", hw)
			a := dsl.Mutable(k, k.ParamI32Ptr())
			k.For(k.ConstInt(0), a.At(k.ConstInt(0)), 1, func(i dsl.Int) {
				a.Set(i, i)
			})
			return k.F
		}, "forloop operand 1"},
		{"loaded array index", func() *ir.Func {
			k := dsl.NewKernel("loadedIndex", hw)
			idx := k.ParamI32Ptr()
			b := dsl.Mutable(k, k.ParamF32Ptr())
			n := k.ParamInt()
			k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
				b.Set(idx.At(i), k.ConstF32(1))
			})
			return k.F
		}, "astore operand 1"},
		{"loaded if condition", func() *ir.Func {
			k := dsl.NewKernel("loadedCond", hw)
			a := dsl.Mutable(k, k.ParamF32Ptr())
			n := k.ParamInt()
			k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
				k.If(a.At(i).Gt(k.ConstF32(0)), func() {
					a.Set(i, k.ConstF32(0))
				}, nil)
			})
			return k.F
		}, "if operand 0"},
		{"float param as loop bound", func() *ir.Func {
			k := dsl.NewKernel("floatBound", hw)
			a := dsl.Mutable(k, k.ParamF32Ptr())
			s := k.ParamF32()
			k.For(k.ConstInt(0), s.ToInt(), 1, func(i dsl.Int) {
				a.Set(i, s)
			})
			return k.F
		}, "forloop operand 1"},
		{"gather with loaded index", func() *ir.Func {
			k := dsl.NewKernel("gatherLoaded", hw)
			base := k.ParamF32Ptr()
			idx := k.ParamI32Ptr()
			out := dsl.Mutable(k, k.ParamF32Ptr())
			n := k.ParamInt()
			k.For(k.ConstInt(0), n, 8, func(i dsl.Int) {
				v := k.MM256I32gatherPs(base, k.ConstInt(0), k.MM256LoaduSi256(idx, i), 4)
				k.MM256StoreuPs(out, i, v)
			})
			return k.F
		}, "_mm256_i32gather_ps operand 1"},
		{"accumulated loads as loop bound", func() *ir.Func {
			k := dsl.NewKernel("accBound", hw)
			a := dsl.Mutable(k, k.ParamI32Ptr())
			n := k.ParamInt()
			sum := k.ForAccInt(k.ConstInt(0), n, 1, k.ConstInt(0),
				func(i dsl.Int, acc dsl.Int) dsl.Int { return acc.Add(a.At(i)) })
			k.For(k.ConstInt(0), sum, 1, func(i dsl.Int) { a.Set(i, i) })
			return k.F
		}, "forloop operand 1"},
		{"if result as index", func() *ir.Func {
			k := dsl.NewKernel("ifIndex", hw)
			a := dsl.Mutable(k, k.ParamI32Ptr())
			n := k.ParamInt()
			j := k.IfInt(n.Gt(k.ConstInt(4)),
				func() dsl.Int { return a.At(k.ConstInt(0)) },
				func() dsl.Int { return k.ConstInt(0) })
			a.Set(j, n)
			return k.F
		}, "astore operand 1"},
		// The next three steer no access Count checks, so a proof that
		// sank only what the count-only skeleton evaluates would admit
		// them: an intrinsic's integer operand, a masked access's mask
		// and a pointer add's offset are sinks in their own right.
		{"loaded integer broadcast", func() *ir.Func {
			k := dsl.NewKernel("loadedSet1", hw)
			a := k.ParamI32Ptr()
			out := dsl.Mutable(k, k.ParamI32Ptr())
			n := k.ParamInt()
			k.For(k.ConstInt(0), n, 8, func(i dsl.Int) {
				k.MM256StoreuSi256(out, i, k.MM256Set1Epi32(a.At(i)))
			})
			return k.F
		}, "_mm256_set1_epi32 operand 0"},
		{"masked load with loaded mask", func() *ir.Func {
			k := dsl.NewKernel("loadedMask", hw)
			base := k.ParamF32Ptr()
			masks := k.ParamI32Ptr()
			out := dsl.Mutable(k, k.ParamF32Ptr())
			n := k.ParamInt()
			k.For(k.ConstInt(0), n, 8, func(i dsl.Int) {
				v := k.MM256MaskloadPs(base, i, k.MM256LoaduSi256(masks, i))
				k.MM256StoreuPs(out, i, v)
			})
			return k.F
		}, "_mm256_maskload_ps operand 1"},
		{"pointer add with loaded offset", func() *ir.Func {
			k := dsl.NewKernel("loadedOffset", hw)
			p := dsl.Mutable(k, k.ParamI8Ptr())
			offs := k.ParamI32Ptr()
			n := k.ParamInt()
			k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
				k.MMPrefetch(p, offs.At(i), 0)
			})
			return k.F
		}, "ptradd operand 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := c.build()
			m, err := NewVM(isa.Haswell).Load(f)
			if err != nil {
				t.Fatal(err)
			}
			if why := m.scalarProg.Proof(); !strings.Contains(why, c.want) {
				t.Fatalf("refusal %q, want one naming %q", why, c.want)
			}
			args, _, err := kernels.BuildArgs(f, 16, 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range []Tier{TierInterpreter, TierC1, TierC2} {
				if key, ok := m.CountKey(tier, args); ok {
					t.Errorf("%v: CountKey admitted %q", tier, key)
				}
			}
		})
	}
}

// TestJavaMethodsAdmitted: every Java baseline method in
// internal/kernels passes the proof at both tiers, so the figure
// sweeps reuse all of their baseline counts.
func TestJavaMethodsAdmitted(t *testing.T) {
	seen := 0
	for _, tg := range kernels.Targets() {
		if !strings.HasPrefix(tg.Name, "J") {
			continue
		}
		seen++
		f, err := tg.Build(isa.Haswell.Features)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewVM(isa.Haswell).Load(f)
		if err != nil {
			t.Fatal(err)
		}
		if why := m.scalarProg.Proof(); why != "" {
			t.Errorf("%s scalar body refused: %s", tg.Name, why)
		}
		if why := m.c2Prog.Proof(); why != "" {
			t.Errorf("%s C2 body refused: %s", tg.Name, why)
		}
	}
	if seen != 7 {
		t.Fatalf("found %d Java methods in kernels.Targets, want 7", seen)
	}
}

// TestCountAtMatchesInvokeAt: every Java method, at the interpreter and
// at C2 and three sizes, counts without executing exactly the map
// InvokeAt counts — never a refusal — and CountAt leaves the
// invocation profile alone.
func TestCountAtMatchesInvokeAt(t *testing.T) {
	for _, tg := range kernels.Targets() {
		if !strings.HasPrefix(tg.Name, "J") {
			continue
		}
		f, err := tg.Build(isa.Haswell.Features)
		if err != nil {
			t.Fatal(err)
		}
		v := NewVM(isa.Haswell)
		m, err := v.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range []Tier{TierInterpreter, TierC2} {
			for _, n := range []int{8, 40, 64} {
				args, _, err := kernels.BuildArgs(f, n, n*n, 1)
				if err != nil {
					t.Fatal(err)
				}
				v.Machine.Counts.Reset()
				if err := m.CountAt(tier, args...); err != nil {
					t.Fatalf("%s %v n=%d: %v", tg.Name, tier, n, err)
				}
				counted := v.Machine.Counts.Clone()
				v.Machine.Counts.Reset()
				if _, err := m.InvokeAt(tier, args...); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(counted, v.Machine.Counts) {
					t.Fatalf("%s %v n=%d: counted %v, executed %v", tg.Name, tier, n, counted, v.Machine.Counts)
				}
			}
		}
		if m.Invocations != 0 {
			t.Errorf("%s: %d invocations profiled", tg.Name, m.Invocations)
		}
	}
}

// TestCountKeyFields: the key ignores float arguments and memory
// contents but separates tiers, run sizes, buffer lengths, offsets and
// mismatched argument kinds.
func TestCountKeyFields(t *testing.T) {
	m, err := NewVM(isa.Haswell).Load(javaSaxpy())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(n, length, off int, s float32) []vm.Value {
		a := vm.PinF32(make([]float32, length))
		b := vm.PinF32(make([]float32, length))
		kernels.FillBuffer(b, uint64(length+off))
		return []vm.Value{vm.PtrValue(a, off), vm.PtrValue(b, off), vm.F32Value(s), vm.IntValue(n)}
	}
	key := func(tier Tier, args []vm.Value) string {
		k, ok := m.CountKey(tier, args)
		if !ok {
			t.Fatalf("CountKey refused %v", args)
		}
		return k
	}
	base := key(TierC2, mk(32, 64, 0, 2.5))
	if got := key(TierC2, mk(32, 64, 0, float32(math.NaN()))); got != base {
		t.Errorf("float argument changed the key: %q vs %q", got, base)
	}
	for name, other := range map[string]string{
		"tier":   key(TierInterpreter, mk(32, 64, 0, 2.5)),
		"n":      key(TierC2, mk(16, 64, 0, 2.5)),
		"length": key(TierC2, mk(32, 128, 0, 2.5)),
		"offset": key(TierC2, mk(32, 64, 4, 2.5)),
	} {
		if other == base {
			t.Errorf("keys equal across different %s: %q", name, base)
		}
	}
	bad := mk(32, 64, 0, 2.5)
	bad[3] = vm.F32Value(32) // float where the int n belongs
	if k, ok := m.CountKey(TierC2, bad); ok {
		t.Errorf("kind mismatch admitted as %q", k)
	}
	if k, ok := m.CountKey(TierC2, bad[:3]); ok {
		t.Errorf("short argument list admitted as %q", k)
	}
}
