package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/hotspot"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// argHash digests one argument set: every value's kind and scalar
// fields, and each pointer's element type, offset and buffer bytes.
func argHash(args []vm.Value) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, a := range args {
		put(uint64(a.Kind))
		put(uint64(a.I))
		put(a.U)
		put(math.Float64bits(a.F))
		if a.Mem != nil {
			put(uint64(a.Mem.Prim))
			put(uint64(a.Off))
			put(uint64(len(a.Mem.Data)))
			h.Write(a.Mem.Data)
		}
	}
	return h.Sum64()
}

// TestFig7InputsMatchSerialBuild: building Figure 7's series lazily —
// each whole on first use, from operands drawn once per run size, in
// any order and concurrently — yields, for every point of the full
// axis, the argument set the serial build produces byte for byte:
// fresh operands per point, each series' RNG drawn across its sizes in
// order. Each series builds once however many points ask.
func TestFig7InputsMatchSerialBuild(t *testing.T) {
	sizes := Pow2Sizes(7, 26)
	s := NewSuite()
	var want []uint64
	for _, java := range []bool{true, false} {
		for _, bits := range fig7Bits {
			build, rng := dotArgs, vm.NewXorshift(1234)
			if java {
				build, rng = javaDotArgs, vm.NewXorshift(4321)
			}
			for _, n := range sizes {
				runN := capSize(n, s.MaxRunLinear)
				want = append(want, argHash(build(bits, randSlice(runN, 7), randSlice(runN, 8), rng)))
			}
		}
	}
	if len(want) != 160 {
		t.Fatalf("%d argument sets, want 160", len(want))
	}
	for _, order := range []string{"forward", "reverse", "concurrent"} {
		s.inputBuilds.Store(0)
		jobs := s.fig7Jobs(sizes)
		got := make([]uint64, len(jobs))
		switch order {
		case "forward":
			for i, jb := range jobs {
				got[i] = argHash(jb.args.build(nil))
			}
		case "reverse":
			for i := len(jobs) - 1; i >= 0; i-- {
				got[i] = argHash(jobs[i].args.build(nil))
			}
		case "concurrent":
			var wg sync.WaitGroup
			for i := range jobs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = argHash(jobs[i].args.build(nil))
				}()
			}
			wg.Wait()
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d argument sets, want %d", order, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: argument set %d (series %d, size %d) differs from the serial build",
					order, i, i/len(sizes), sizes[i%len(sizes)])
			}
		}
		if n := s.inputBuilds.Load(); n != 8 {
			t.Errorf("%s: %d series builds, want 8", order, n)
		}
	}
}

// TestShapesCountLikeInputs: every leg of every fig6a, fig6b and fig7
// point, at the memo test sizes and on the full axis, keys and counts
// on its argument shape exactly as on the inputs it would execute: the
// same count key for the staged kernel and for the Java method at C2,
// and, every rep, the same count map and error from the count-only
// evaluator.
func TestShapesCountLikeInputs(t *testing.T) {
	rt := core.DefaultRuntime()
	jvm := hotspot.NewVM(rt.Arch)
	fs := rt.Arch.Features
	kernelsByName := map[string]*core.Kernel{}
	methods := map[string]*hotspot.Method{}
	stagedKernel := func(name string, k *dsl.Kernel, err error) *core.Kernel {
		t.Helper()
		if kn, ok := kernelsByName[name]; ok {
			return kn
		}
		var kn *core.Kernel
		if err == nil {
			kn, err = rt.Compile(k)
		}
		if err != nil {
			t.Fatal(err)
		}
		kernelsByName[name] = kn
		return kn
	}
	javaMethod := func(name string, f *ir.Func, err error) *hotspot.Method {
		t.Helper()
		if m, ok := methods[name]; ok {
			return m
		}
		var m *hotspot.Method
		if err == nil {
			m, err = jvm.Load(f)
		}
		if err != nil {
			t.Fatal(err)
		}
		methods[name] = m
		return m
	}
	// same compares one leg's key and counts on the shape and on the
	// built inputs; key and count evaluate one argument list each.
	same := func(label string, reps int, a argSet, m *vm.Machine,
		key func([]vm.Value) (string, bool), count func([]vm.Value) error) {
		t.Helper()
		built := a.build(nil)
		ks, oks := key(a.shape)
		kb, okb := key(built)
		if !oks || !okb || ks != kb {
			t.Fatalf("%s: shape key %q (%v), built key %q (%v)", label, ks, oks, kb, okb)
		}
		for r := 0; r < reps; r++ {
			m.Counts.Reset()
			errS := count(a.shape)
			cs := m.Counts.Clone()
			m.Counts.Reset()
			errB := count(built)
			if !reflect.DeepEqual(cs, m.Counts) || fmt.Sprint(errS) != fmt.Sprint(errB) {
				t.Fatalf("%s rep %d: shape counts %v (err %v), built %v (err %v)",
					label, r, cs, errS, m.Counts, errB)
			}
		}
	}
	staged := func(label string, reps int, kn *core.Kernel, a argSet) {
		t.Helper()
		same(label+" staged", reps, a, rt.Machine, kn.CountKey,
			func(args []vm.Value) error { return kn.CountValues(args...) })
	}
	java := func(label string, reps int, m *hotspot.Method, a argSet) {
		t.Helper()
		same(label+" "+m.Name, reps, a, jvm.Machine,
			func(args []vm.Value) (string, bool) { return m.CountKey(hotspot.TierC2, args) },
			func(args []vm.Value) error { return m.CountAt(hotspot.TierC2, args...) })
	}

	full := NewSuite()
	for _, c := range []struct {
		s     *Suite
		sizes map[string][]int
	}{{memoSuite(1), memoSizes}, {full, nil}} {
		s, sizes := c.s, func(figure string) []int {
			if c.sizes != nil {
				return c.sizes[figure]
			}
			ns, err := FigureSizes(figure, false)
			if err != nil {
				t.Fatal(err)
			}
			return ns
		}
		for _, jb := range s.fig6aJobs(sizes("fig6a")) {
			label := fmt.Sprintf("fig6a n=%d", jb.n)
			staged(label, s.Reps, stagedKernel("saxpy", kernels.StagedSaxpy(fs), nil), jb.args)
			java(label, s.Reps, javaMethod("saxpy", kernels.JavaSaxpy(fs), nil), jb.args)
		}
		for _, jb := range s.fig6bJobs(sizes("fig6b")) {
			label := fmt.Sprintf("fig6b n=%d", jb.n)
			staged(label, s.Reps, stagedKernel("mmm", kernels.StagedMMM(fs), nil), jb.args)
			java(label, s.Reps, javaMethod("triple", kernels.JavaMMMTriple(fs), nil), jb.args)
			java(label, s.Reps, javaMethod("blocked", kernels.JavaMMMBlocked(fs), nil), jb.args)
		}
		for _, jb := range s.fig7Jobs(sizes("fig7")) {
			label := fmt.Sprintf("fig7 %d-bit n=%d", jb.bits, jb.n)
			if jb.java {
				f, err := kernels.JavaDot(jb.bits, fs)
				java(label, s.Reps, javaMethod(fmt.Sprint("dot", jb.bits), f, err), jb.args)
				continue
			}
			k, err := kernels.StagedDot(jb.bits, fs)
			staged(label, s.Reps, stagedKernel(fmt.Sprint("dot", jb.bits), k, err), jb.args)
		}
	}
}
