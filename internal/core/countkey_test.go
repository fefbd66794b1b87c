package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cgen"
	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// countKeyStrategies are the execution strategies a staged count key
// must hold across: both interpreter tiers, the sharded loop tier, and
// the native backend (when this host can build plugins).
var countKeyStrategies = []struct {
	name      string
	configure func(rt *Runtime) error
}{
	{"vm-plain", func(rt *Runtime) error { rt.Opt = kernelc.TierPlain; return nil }},
	{"vm-opt", func(rt *Runtime) error { return nil }},
	{"vm-2lanes", func(rt *Runtime) error { rt.Machine.Workers = 2; return nil }},
	{"native", func(rt *Runtime) error { return rt.UseBackend("native") }},
}

// nativeCountKernels bounds the native leg to the kernels the figure
// sweeps memoize: each one is a plugin build.
var nativeCountKernels = map[string]bool{
	"saxpy": true, "mmm_blocked": true, "dot32": true, "dot16": true, "dot8": true, "dot4": true,
}

// TestCountKeyInvariantAcrossData is the staged leg's soundness
// property: for every staged kernel the proof admits, at two sizes, two
// calls on differently seeded buffers and float arguments have equal
// count keys, count identical op maps (jni.call included) and fail or
// succeed alike, under every execution strategy.
func TestCountKeyInvariantAcrossData(t *testing.T) {
	admitted := 0
	for _, st := range countKeyStrategies {
		probe := DefaultRuntime()
		if err := st.configure(probe); err != nil {
			t.Logf("%s: skipped: %v", st.name, err)
			continue
		}
		for _, tg := range kernels.Targets() {
			if strings.HasPrefix(tg.Name, "J") || !isa.Haswell.Features.Has(tg.Requires...) {
				continue
			}
			if st.name == "native" && !nativeCountKernels[tg.Name] {
				continue
			}
			t.Run(st.name+"/"+tg.Name, func(t *testing.T) {
				rt, err := NewRuntime(isa.Haswell, cgen.HostEnvironment)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.configure(rt); err != nil {
					t.Fatal(err)
				}
				f, err := tg.Build(isa.Haswell.Features)
				if err != nil {
					t.Fatal(err)
				}
				kn, err := rt.Compile(&dsl.Kernel{F: f, Features: isa.Haswell.Features})
				if err != nil {
					t.Fatal(err)
				}
				if kn.art.prog.Proof() != "" {
					return // refused: never memoized
				}
				admitted++
				square := strings.Contains(tg.Name, "mmm")
				for _, n := range []int{16, 64} {
					elems := n
					if square {
						elems = n * n
					}
					var keys [2]string
					var counts [2]vm.Counter
					var errs [2]error
					for r, seed := range []uint64{uint64(n), ^uint64(n)} {
						args, _, err := kernels.BuildArgs(f, n, elems, seed)
						if err != nil {
							t.Fatal(err)
						}
						for i := range args {
							if r == 1 && (args[i].Kind == ir.KindF32 || args[i].Kind == ir.KindF64) {
								args[i].F = -args[i].F - 0.75
							}
						}
						key, ok := kn.CountKey(args)
						if !ok {
							t.Fatalf("n=%d: admitted kernel has no key for %v", n, args)
						}
						keys[r] = key
						rt.Machine.Counts.Reset()
						_, errs[r] = kn.CallValues(args...)
						counts[r] = rt.Machine.Counts.Clone()
					}
					if keys[0] != keys[1] {
						t.Fatalf("n=%d: keys differ for equal shapes: %q vs %q", n, keys[0], keys[1])
					}
					if (errs[0] == nil) != (errs[1] == nil) {
						t.Fatalf("n=%d: error outcomes differ: %v vs %v", n, errs[0], errs[1])
					}
					if !reflect.DeepEqual(counts[0], counts[1]) {
						t.Fatalf("n=%d: key %q admitted but counts differ:\n%v\n%v", n, keys[0], counts[0], counts[1])
					}
				}
			})
		}
	}
	if admitted == 0 {
		t.Fatal("the proof admitted no staged kernel")
	}
}

// TestCountKeySharedAcrossCacheHits: a compile-cache hit wraps the same
// artifact, so it reuses the first compile's proof verdict and key; a
// refused graph has no key.
func TestCountKeySharedAcrossCacheHits(t *testing.T) {
	rt := DefaultRuntime()
	k1, err := rt.Compile(kernels.StagedSaxpy(rt.Arch.Features))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := rt.Fork().Compile(kernels.StagedSaxpy(rt.Arch.Features))
	if err != nil {
		t.Fatal(err)
	}
	if k1.art != k2.art {
		t.Fatal("second compile missed the cache")
	}
	a, b := vm.PinF32(make([]float32, 64)), vm.PinF32(make([]float32, 64))
	args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0), vm.F32Value(2.5), vm.IntValue(64)}
	key1, ok1 := k1.CountKey(args)
	key2, ok2 := k2.CountKey(args)
	if !ok1 || !ok2 || key1 != key2 || !strings.HasPrefix(key1, "saxpy#") {
		t.Fatalf("keys %q/%v and %q/%v, want one shared saxpy key", key1, ok1, key2, ok2)
	}

	k := rt.NewKernel("loadedBound")
	buf := dsl.Mutable(k, k.ParamI32Ptr())
	k.For(k.ConstInt(0), buf.At(k.ConstInt(0)), 1, func(i dsl.Int) { buf.Set(i, i) })
	refused, err := rt.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	if key, ok := refused.CountKey([]vm.Value{vm.PtrValue(vm.PinI32(make([]int32, 8)), 0)}); ok {
		t.Fatalf("data-dependent kernel admitted as %q", key)
	}
}
