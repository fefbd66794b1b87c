package machine

import (
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

func TestClassifyBuckets(t *testing.T) {
	cases := []struct {
		op   string
		res  Resource
		load int
	}{
		{"_mm256_fmadd_ps", ResFMA, 0},
		{"_mm256_mul_ps", ResFMA, 0},
		{"_mm256_add_ps", ResFPAdd, 0},
		{"_mm256_loadu_ps", ResLoad, 32},
		{"_mm_loadu_ps", ResLoad, 16},
		{"_mm512_loadu_ps", ResLoad, 64},
		{"_mm256_storeu_ps", ResStore, 0},
		{"_mm256_shuffle_ps", ResShuf, 0},
		{"_mm256_permute2f128_ps", ResShuf, 0},
		{"_mm256_maddubs_epi16", ResVecMul, 0},
		{"_mm256_madd_epi16", ResVecMul, 0},
		{"_mm256_add_epi32", ResVecInt, 0},
		{"_mm256_sign_epi8", ResVecInt, 0},
		{"_mm256_cvtph_ps", ResShuf, 0},
		{"_mm256_i32gather_ps", ResLoad, 32},
		{"_mm256_div_ps", ResDiv, 0},
		{"_mm256_sqrt_pd", ResDiv, 0},
		{"_mm512_reduce_add_ps", ResShuf, 0},
		{"_rdrand16_step", ResALU, 0},
		{"_mm256_sin_ps", ResFMA, 0},
		{"scalar.load", ResLoad, 4},
		{"scalar.load.strided", ResLoad, 16},
		{"scalar.fp", ResFPAdd, 0},
		{"scalar.branch", ResBranch, 0},
	}
	for _, c := range cases {
		got := Classify(c.op)
		if got.Res != c.res {
			t.Errorf("Classify(%s).Res = %v, want %v", c.op, got.Res, c.res)
		}
		if got.LoadBytes != c.load {
			t.Errorf("Classify(%s).LoadBytes = %d, want %d", c.op, got.LoadBytes, c.load)
		}
	}
}

func TestStoreBytesOnStores(t *testing.T) {
	if Classify("_mm256_storeu_ps").StoreBytes != 32 {
		t.Error("256-bit store must move 32 bytes")
	}
	if Classify("_mm_storeu_si128").StoreBytes != 16 {
		t.Error("128-bit store must move 16 bytes")
	}
}

func TestEstimateComputeBound(t *testing.T) {
	e := NewEstimator(isa.Haswell)
	counts := vm.Counter{"_mm256_fmadd_ps": 1000}
	rep := e.Estimate(nil, counts, 1024)
	// 1000 FMAs on 2 ports = 500 cycles.
	if rep.Compute != 500 {
		t.Errorf("compute = %v, want 500", rep.Compute)
	}
	if rep.Bound != "compute" {
		t.Errorf("bound = %s", rep.Bound)
	}
}

func TestEstimateFrontEndBound(t *testing.T) {
	e := NewEstimator(isa.Haswell)
	// Spread across many resources so no single port dominates; the
	// 4-wide front end must bound.
	counts := vm.Counter{
		"_mm256_add_epi32": 1000, // vecint: 500
		"_mm256_add_ps":    1000, // fpadd: 1000 — dominates ports
		"scalar.alu":       3000, // alu: 750
	}
	rep := e.Estimate(nil, counts, 1024)
	front := 5000.0 / IssueWidth // 1250
	if rep.Compute < front {
		t.Errorf("front-end bound %v not applied: compute %v", front, rep.Compute)
	}
}

func TestEstimateMemoryLevels(t *testing.T) {
	e := NewEstimator(isa.Haswell)
	counts := vm.Counter{"_mm256_loadu_ps": 1000} // 32KB moved
	l1 := e.Estimate(nil, counts, 16<<10)
	mem := e.Estimate(nil, counts, 64<<20)
	if l1.Level != "L1" || mem.Level != "Mem" {
		t.Fatalf("levels: %s, %s", l1.Level, mem.Level)
	}
	if mem.Memory <= l1.Memory {
		t.Error("DRAM bandwidth must cost more than L1")
	}
	if mem.Bound != "memory" {
		t.Errorf("large working set should be memory bound, got %s", mem.Bound)
	}
}

func TestNarrowAccessUtilizationPenalty(t *testing.T) {
	e := NewEstimator(isa.Haswell)
	// Same bytes via 32B or 4B accesses: narrow pays a bandwidth
	// utilization penalty.
	wide := e.Estimate(nil, vm.Counter{"_mm256_loadu_ps": 1000}, 64<<20)
	narrow := e.Estimate(nil, vm.Counter{"scalar.load": 8000}, 64<<20)
	if narrow.Memory <= wide.Memory {
		t.Errorf("narrow accesses should sustain less bandwidth: %v vs %v",
			narrow.Memory, wide.Memory)
	}
}

func TestJNIOverheadCounted(t *testing.T) {
	e := NewEstimator(isa.Haswell)
	with := e.Estimate(nil, vm.Counter{"_mm256_add_ps": 10, "jni.call": 1}, 64)
	without := e.Estimate(nil, vm.Counter{"_mm256_add_ps": 10}, 64)
	if with.Cycles-without.Cycles != isa.Haswell.JNICycles {
		t.Errorf("JNI overhead delta = %v, want %v",
			with.Cycles-without.Cycles, isa.Haswell.JNICycles)
	}
}

func TestChainLatencyScalarReduction(t *testing.T) {
	// acc += a[i]*b[i]: the carried chain is one FP add (3 cycles); the
	// multiply feeds it but is not carried.
	k := dsl.NewKernel("dot", isa.Haswell.Features)
	a, b := k.ParamF32Ptr(), k.ParamF32Ptr()
	n := k.ParamInt()
	acc := k.ForAccF32(k.ConstInt(0), n, 1, k.ConstF32(0),
		func(i dsl.Int, acc dsl.F32) dsl.F32 {
			return acc.Add(a.At(i).Mul(b.At(i)))
		})
	k.Return(acc)

	e := NewEstimator(isa.Haswell)
	// Find the loop's sym id the way kernelc reports it.
	var loopID int
	for _, node := range k.F.G.Root().Nodes {
		if node.Def.Op == ir.OpLoop {
			loopID = node.Sym.ID
		}
	}
	counts := vm.Counter{
		"scalar.load": 2000, "scalar.fmul": 1000, "scalar.fp": 1000,
		"scalar.loop": 1000,
	}
	counts[chainKey(loopID)] = 1000
	rep := e.Estimate(k.F, counts, 1024)
	if rep.Latency != 3000 {
		t.Errorf("chain latency = %v, want 3000 (1000 iterations × 3-cycle FP add)", rep.Latency)
	}
	if rep.Bound != "latency" {
		t.Errorf("bound = %s, want latency", rep.Bound)
	}
}

func chainKey(id int) string {
	return "loop.#" + itoa(id)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestChainLatencyVectorFMA(t *testing.T) {
	// Four chained FMAs per iteration = 20 cycles of carried latency.
	k := dsl.NewKernel("dotvec", isa.Haswell.Features)
	a, b := k.ParamF32Ptr(), k.ParamF32Ptr()
	n := k.ParamInt()
	acc := k.ForAccM256(k.ConstInt(0), n, 32, k.MM256SetzeroPs(),
		func(i dsl.Int, acc dsl.M256) dsl.M256 {
			for u := 0; u < 4; u++ {
				acc = k.MM256FmaddPs(k.MM256LoaduPs(a, i.AddC(8*u)),
					k.MM256LoaduPs(b, i.AddC(8*u)), acc)
			}
			return acc
		})
	_ = acc
	var loopID int
	for _, node := range k.F.G.Root().Nodes {
		if node.Def.Op == ir.OpLoop {
			loopID = node.Sym.ID
		}
	}
	counts := vm.Counter{chainKey(loopID): 100}
	e := NewEstimator(isa.Haswell)
	rep := e.Estimate(k.F, counts, 1024)
	if rep.Latency != 2000 {
		t.Errorf("vector chain latency = %v, want 2000 (100 × 4×5)", rep.Latency)
	}
	// The body's chain is priced once; later estimates scale the
	// memoized latency by their own iteration counts.
	counts[chainKey(loopID)] = 300
	if rep := e.Estimate(k.F, counts, 1024); rep.Latency != 6000 {
		t.Errorf("repriced chain latency = %v, want 6000 (300 × 4×5)", rep.Latency)
	}
	if len(e.chains) != 1 {
		t.Errorf("%d loop bodies memoized, want 1", len(e.chains))
	}
}

func TestFlopsPerCycle(t *testing.T) {
	if got := FlopsPerCycle(100, Report{Cycles: 50}); got != 2 {
		t.Errorf("FlopsPerCycle = %v", got)
	}
	if got := FlopsPerCycle(100, Report{}); got != 0 {
		t.Errorf("zero cycles must yield 0, got %v", got)
	}
}
