package kernelc_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dsl"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// countAndRun counts p on one machine and runs it on another, each
// from its own argument set (Run writes memory, Count must not need
// to). It returns both counters and errors.
func countAndRun(p *kernelc.Program, countArgs, runArgs []vm.Value, workers int) (counted, ran vm.Counter, cerr, rerr error) {
	cm, rm := vm.NewMachine(isa.Haswell), vm.NewMachine(isa.Haswell)
	rm.Workers = workers
	cerr = p.Count(cm, countArgs...)
	_, rerr = p.Run(rm, runArgs...)
	return cm.Counts, rm.Counts, cerr, rerr
}

// checkCountMatchesRun is the differential property: Count either
// refuses with the counter untouched, or reproduces Run's outcome — the
// identical count map on success, the identical error text on failure.
// It returns whether Count counted.
func checkCountMatchesRun(t *testing.T, what string, p *kernelc.Program, build func() []vm.Value) bool {
	t.Helper()
	for _, workers := range []int{1, 2} {
		counted, ran, cerr, rerr := countAndRun(p, build(), build(), workers)
		switch {
		case errors.Is(cerr, kernelc.ErrNotCounted):
			if len(counted) != 0 {
				t.Fatalf("%s: refused (%v) but counted %v", what, cerr, counted)
			}
			return false
		case cerr != nil || rerr != nil:
			if cerr == nil || rerr == nil || cerr.Error() != rerr.Error() {
				t.Fatalf("%s: Count error %v, Run error %v", what, cerr, rerr)
			}
		case !reflect.DeepEqual(counted, ran):
			t.Fatalf("%s (%d lanes): Count and Run disagree\ncount: %v\nrun:   %v", what, workers, counted, ran)
		}
	}
	return true
}

// TestCountMatchesRunOnTargets: every shipped kernel, at both
// interpreter tiers and three sizes, counts exactly what it runs —
// without a single refusal.
func TestCountMatchesRunOnTargets(t *testing.T) {
	for _, tg := range kernels.Targets() {
		arch := isa.Haswell
		if !arch.Features.Has(tg.Requires...) {
			arch = isa.SkylakeX
		}
		f, err := tg.Build(arch.Features)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range []kernelc.Tier{kernelc.TierOpt, kernelc.TierPlain} {
			p, err := kernelc.CompileTier(f, tier)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{8, 40, 64} {
				build := func() []vm.Value {
					args, _, err := kernels.BuildArgs(f, n, n*n+512, uint64(n))
					if err != nil {
						t.Fatal(err)
					}
					return args
				}
				what := fmt.Sprintf("%s/%v/n=%d", tg.Name, tier, n)
				if !checkCountMatchesRun(t, what, p, build) {
					_, _, cerr, _ := countAndRun(p, build(), build(), 1)
					t.Errorf("%s: refused: %v", what, cerr)
				}
			}
		}
	}
}

// stagedLoad stages `for i in [0,n): a[idx(i)] = 1`.
func stagedLoad(name string, idx func(k *dsl.Kernel, i dsl.Int) dsl.Int) *kernelc.Program {
	k := dsl.NewKernel(name, isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		a.Set(idx(k, i), a.At(idx(k, i)).Add(k.ConstF32(1)))
	})
	p, err := kernelc.Compile(k.F)
	if err != nil {
		panic(err)
	}
	return p
}

// TestCountRefusesWhereRunFails is the refusal table: wherever Run
// fails on an access, Count refuses — never reports success — and
// leaves the counter untouched; a non-positive stride is the one
// failure Count reports itself, with Run's exact error.
func TestCountRefusesWhereRunFails(t *testing.T) {
	saxpy, err := kernelc.Compile(kernels.StagedSaxpy(isa.Haswell.Features).F)
	if err != nil {
		t.Fatal(err)
	}
	saxpyArgs := func(elems, off, n int) func() []vm.Value {
		return func() []vm.Value {
			a, b := vm.NewBuffer(isa.PrimF32, elems), vm.NewBuffer(isa.PrimF32, elems)
			return []vm.Value{vm.PtrValue(a, off), vm.PtrValue(b, 0), vm.F32Value(2), vm.IntValue(n)}
		}
	}
	wrap := stagedLoad("wrap", func(k *dsl.Kernel, i dsl.Int) dsl.Int {
		return i.Mul(k.ConstInt(1 << 30)).Mul(k.ConstInt(2)) // i·2^31 wraps to 0, -2^31, 0, ...
	})
	k := dsl.NewKernel("gather", isa.Haswell.Features)
	g, out := k.ParamF32Ptr(), dsl.Mutable(k, k.ParamF32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 8, func(i dsl.Int) {
		k.MM256StoreuPs(out, i, k.MM256I32gatherPs(g, k.ConstInt(0), k.MM256Set1Epi32(i), 4))
	})
	gather, err := kernelc.Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	k = dsl.NewKernel("masked", isa.Haswell.Features)
	src, dst := k.ParamF32Ptr(), dsl.Mutable(k, k.ParamF32Ptr())
	n = k.ParamInt()
	k.For(k.ConstInt(0), n, 8, func(i dsl.Int) {
		k.MM256StoreuPs(dst, i, k.MM256MaskloadPs(src, i, k.MM256Set1Epi32(k.ConstInt(-1))))
	})
	masked, err := kernelc.Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	twoBufs := func(elems, n int) func() []vm.Value {
		return func() []vm.Value {
			return []vm.Value{vm.PtrValue(vm.NewBuffer(isa.PrimF32, elems), 0),
				vm.PtrValue(vm.NewBuffer(isa.PrimF32, elems), 0), vm.IntValue(n)}
		}
	}
	oneBuf := func(elems, n int) func() []vm.Value {
		return func() []vm.Value {
			return []vm.Value{vm.PtrValue(vm.NewBuffer(isa.PrimF32, elems), 0), vm.IntValue(n)}
		}
	}
	for _, tc := range []struct {
		name string
		p    *kernelc.Program
		args func() []vm.Value
	}{
		{"n larger than the buffer", saxpy, saxpyArgs(64, 0, 72)},
		{"scalar tail past the end", saxpy, saxpyArgs(64, 0, 67)},
		{"pointer offset past the end", saxpy, saxpyArgs(64, 80, 8)},
		{"vector access straddling the end", saxpy, saxpyArgs(64, 4, 64)},
		{"negative pointer offset", saxpy, saxpyArgs(64, -1, 8)},
		{"wrap-around indices", wrap, oneBuf(16, 3)},
		{"gather", gather, twoBufs(64, 16)},
		{"masked load", masked, twoBufs(64, 16)},
	} {
		counted, _, cerr, rerr := countAndRun(tc.p, tc.args(), tc.args(), 1)
		if !errors.Is(cerr, kernelc.ErrNotCounted) || len(counted) != 0 {
			t.Errorf("%s: Count = %v with %v, want a refusal and no counts (Run: %v)", tc.name, cerr, counted, rerr)
		}
		if tc.name != "gather" && tc.name != "masked load" && rerr == nil {
			t.Errorf("%s: Run succeeded; the case does not exercise a failure", tc.name)
		}
	}

	// Benign wraparound: i·2^32 truncates to 0 at every i, so Run
	// succeeds and Count must agree, iterating the skeleton.
	zero := stagedLoad("wrapzero", func(k *dsl.Kernel, i dsl.Int) dsl.Int { return i.Shl(32) })
	if !checkCountMatchesRun(t, "benign wrap", zero, oneBuf(4, 5)) {
		t.Error("benign wrap refused")
	}

	k = dsl.NewKernel("badstride", isa.Haswell.Features)
	n = k.ParamInt()
	stride := k.ParamInt()
	acc := dsl.Mutable(k, k.ParamF32Ptr())
	k.ForExp(k.ConstInt(0), n, stride, func(i dsl.Int) {
		acc.Set(k.ConstInt(0), k.ConstF32(1))
	})
	bad, err := kernelc.Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{0, -3} {
		build := func() []vm.Value {
			return []vm.Value{vm.IntValue(10), vm.IntValue(s), vm.PtrValue(vm.NewBuffer(isa.PrimF32, 1), 0)}
		}
		_, _, cerr, rerr := countAndRun(bad, build(), build(), 1)
		if cerr == nil || rerr == nil || cerr.Error() != rerr.Error() || !strings.Contains(cerr.Error(), "stride") {
			t.Errorf("stride %d: Count error %v, Run error %v, want the same stride error", s, cerr, rerr)
		}
	}
}

// TestCountTriangularNest: an inner trip count that varies with the
// enclosing index (j < i) keeps the outer loop from closing; each inner
// loop still closes, and the counts are Run's.
func TestCountTriangularNest(t *testing.T) {
	k := dsl.NewKernel("triangle", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		k.For(i.AddC(-3), i, 1, func(j dsl.Int) {
			a.Set(j.AddC(3), a.At(i).Add(k.ConstF32(1)))
		})
		k.For(k.ConstInt(0), i, 2, func(j dsl.Int) {
			a.Set(j, a.At(j).Add(k.ConstF32(1)))
		})
	})
	p, err := kernelc.Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 7, 16} {
		build := func() []vm.Value {
			return []vm.Value{vm.PtrValue(vm.NewBuffer(isa.PrimF32, 19), 0), vm.IntValue(n)}
		}
		if !checkCountMatchesRun(t, fmt.Sprintf("triangle n=%d", n), p, build) {
			t.Errorf("n=%d refused", n)
		}
	}
}

// TestCountIteratesIfBodies: a loop whose body branches on its index
// iterates the skeleton, taking the same arms Run takes.
func TestCountIteratesIfBodies(t *testing.T) {
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
	p, err := kernelc.Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, 9, 17} {
		build := func() []vm.Value {
			return []vm.Value{vm.PtrValue(vm.NewBuffer(isa.PrimF32, 16), 0), vm.IntValue(n)}
		}
		counted := checkCountMatchesRun(t, "branchy", p, build)
		if n <= 16 && !counted {
			t.Errorf("n=%d refused", n)
		}
		if n > 16 && counted {
			t.Errorf("n=%d counted past the buffer", n)
		}
	}
	if p.Proof() != "" {
		t.Errorf("proof refused: %s", p.Proof())
	}
}

// TestCountAdmitsDeadDataNodes: a node the schedule drops never runs,
// so it steers nothing. An unused _mm256_set1_epi32(b[i]) would read
// its integer operand from memory; dead, it leaves the body admitted,
// and Count adds exactly what Run adds.
func TestCountAdmitsDeadDataNodes(t *testing.T) {
	k := dsl.NewKernel("dead_set1", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamI32Ptr())
	b := k.ParamI32Ptr()
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		k.MM256Set1Epi32(b.At(i))
		a.Set(i, a.At(i).Add(k.ConstInt(1)))
	})
	for _, tier := range []kernelc.Tier{kernelc.TierOpt, kernelc.TierPlain} {
		p, err := kernelc.CompileTier(k.F, tier)
		if err != nil {
			t.Fatal(err)
		}
		if p.Proof() != "" {
			t.Fatalf("%v: proof refused a dead node: %s", tier, p.Proof())
		}
		for _, size := range []int{0, 5, 64} {
			build := func() []vm.Value {
				return []vm.Value{vm.PtrValue(vm.NewBuffer(isa.PrimI32, 64), 0),
					vm.PtrValue(vm.NewBuffer(isa.PrimI32, 64), 0), vm.IntValue(size)}
			}
			if !checkCountMatchesRun(t, fmt.Sprintf("dead_set1 %v n=%d", tier, size), p, build) {
				t.Errorf("%v n=%d: refused", tier, size)
			}
		}
	}
}

// randomNest stages a random loop nest over one float array: bounds,
// strides and indices mix constants, parameters, enclosing induction
// variables, wrapping multipliers, shifts and non-affine products, with
// ifs, vector accesses and an integer accumulator steering an index.
func randomNest(rng *rand.Rand) *dsl.Kernel {
	k := dsl.NewKernel("nest", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	p, q, s := k.ParamInt(), k.ParamInt(), k.ParamInt()
	pick := func(xs ...dsl.Int) dsl.Int { return xs[rng.Intn(len(xs))] }
	c := func() dsl.Int { return k.ConstInt(rng.Intn(7) - 2) }
	index := func(ivs []dsl.Int) dsl.Int {
		idx := c()
		for _, iv := range ivs {
			switch rng.Intn(8) {
			case 7:
				idx = idx.Add(iv.Shl(31).Shr(31)) // 0 or -1 after wrapping
			case 0:
			case 1:
				idx = idx.Add(iv.MulC(1 << 29)) // wraps for iv ≥ 4
			case 2:
				idx = idx.Add(iv.Mul(iv)) // not affine
			case 3:
				idx = idx.Add(iv.Shl(1).Shr(1))
			case 4:
				idx = idx.Sub(iv)
			default:
				idx = idx.Add(iv.MulC(rng.Intn(3) + 1))
			}
		}
		if rng.Intn(4) == 0 {
			idx = idx.Add(p)
		}
		return idx
	}
	var body func(depth int, ivs []dsl.Int)
	body = func(depth int, ivs []dsl.Int) {
		for st := rng.Intn(3) + 1; st > 0; st-- {
			switch r := rng.Intn(6); {
			case r == 0 && depth < 3:
				outer := append([]dsl.Int{p, q, k.ConstInt(rng.Intn(9))}, ivs...)
				start := pick(append(outer, k.ConstInt(0))...)
				end := pick(append(outer, start.AddC(rng.Intn(6)))...)
				inner := func(i dsl.Int) { body(depth+1, append(ivs, i)) }
				if rng.Intn(5) == 0 {
					k.ForExp(start, end, pick(append(ivs, s)...), inner)
				} else {
					k.For(start, end, rng.Intn(3)+1, inner)
				}
			case r == 1 && len(ivs) > 0:
				iv := ivs[rng.Intn(len(ivs))]
				k.If(iv.Lt(k.ConstInt(rng.Intn(6))), func() {
					a.Set(index(ivs), k.ConstF32(1))
				}, nil)
			case r == 2:
				k.MM256StoreuPs(a, index(ivs), k.MM256AddPs(k.MM256LoaduPs(a, index(ivs)), k.MM256Set1Ps(k.ConstF32(1))))
			case r == 3:
				j := k.ForAccInt(k.ConstInt(0), pick(p, q), 1, c(), func(i, acc dsl.Int) dsl.Int { return acc.AddC(2) })
				a.Set(j, k.ConstF32(2))
			default:
				i := index(ivs)
				a.Set(i, a.At(i).Mul(k.ConstF32(0.5)))
			}
		}
	}
	body(0, nil)
	return k
}

// TestCountMatchesRunOnRandomNests runs the differential property over
// random nests and arguments — buffers short and long, pointer offsets
// out of range, bounds and strides of every sign — and requires both
// counted runs and refusals to occur.
func TestCountMatchesRunOnRandomNests(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var counted, refused, refusedRunOK int
	for i := 0; i < 2000; i++ {
		k := randomNest(rng)
		tier := kernelc.TierOpt
		if i%2 == 1 {
			tier = kernelc.TierPlain
		}
		p, err := kernelc.CompileTier(k.F, tier)
		if err != nil {
			t.Fatal(err)
		}
		if why := p.Proof(); why != "" {
			t.Fatalf("case %d refused by the proof: %s", i, why)
		}
		elems, off := rng.Intn(96), rng.Intn(8)-2
		ints := [3]int{rng.Intn(24) - 3, rng.Intn(24) - 3, rng.Intn(4) - 1}
		build := func() []vm.Value {
			return []vm.Value{vm.PtrValue(vm.NewBuffer(isa.PrimF32, elems), off),
				vm.IntValue(ints[0]), vm.IntValue(ints[1]), vm.IntValue(ints[2])}
		}
		if checkCountMatchesRun(t, fmt.Sprintf("case %d", i), p, build) {
			counted++
			continue
		}
		refused++
		if _, _, _, rerr := countAndRun(p, build(), build(), 1); rerr == nil {
			refusedRunOK++
		}
	}
	t.Logf("%d counted, %d refused (%d of them where Run succeeds)", counted, refused, refusedRunOK)
	if counted < 500 || refused < 100 {
		t.Errorf("%d counted, %d refused: the generator no longer exercises both outcomes", counted, refused)
	}
}

// TestCountConcurrent: one fresh program counted and run from many
// goroutines at once — the skeleton is built once, on first use, and
// every call owns its state — gives every caller Run's counts (make
// race runs this under the race detector).
func TestCountConcurrent(t *testing.T) {
	f := kernels.JavaMMMBlocked(isa.Haswell.Features)
	p, err := kernelc.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	args := func() []vm.Value {
		a, _, err := kernels.BuildArgs(f, 16, 256, 1)
		if err != nil {
			t.Error(err)
		}
		return a
	}
	want := vm.NewMachine(isa.Haswell)
	if _, err := p.Run(want, args()...); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := vm.NewMachine(isa.Haswell)
			var err error
			if g%4 == 0 {
				m.Workers = 2
				_, err = p.Run(m, args()...)
			} else {
				err = p.Count(m, args()...)
			}
			if err != nil || !reflect.DeepEqual(m.Counts, want.Counts) {
				t.Errorf("goroutine %d: err %v, counts %v, want %v", g, err, m.Counts, want.Counts)
			}
		}(g)
	}
	wg.Wait()
}
