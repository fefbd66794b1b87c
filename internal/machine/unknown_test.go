package machine

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

// TestUnknownOpFallbackCost pins the defensive price an unrecognized
// intrinsic gets: one uop on the vector-integer port at latency 1.
// Downstream consumers (figure renormalization, the execution
// planner's strategy ranking) depend on this exact fallback staying
// put — a silent change would shift every estimate containing an
// unpriced op.
func TestUnknownOpFallbackCost(t *testing.T) {
	ResetUnknownOps()
	defer ResetUnknownOps()
	got := Classify("_mm256_totally_alien_op_ps")
	want := OpCost{Res: ResVecInt, Uops: 1, Lat: 1}
	if got != want {
		t.Fatalf("fallback cost = %+v, want %+v", got, want)
	}
	if n := UnknownOpCount(); n != 1 {
		t.Fatalf("UnknownOpCount = %d, want 1", n)
	}
}

// TestUnknownOpLogsOncePerName: each distinct unknown spelling logs
// exactly once per process, repeats are silent, and the counter tracks
// distinct names.
func TestUnknownOpLogsOncePerName(t *testing.T) {
	ResetUnknownOps()
	orig := DebugLogf
	defer func() {
		ResetUnknownOps()
		DebugLogf = orig
	}()
	var logged []string
	DebugLogf = func(format string, args ...any) {
		logged = append(logged, format)
	}
	Classify("_mm_bogus_a")
	Classify("_mm_bogus_a")
	Classify("_mm_bogus_a")
	Classify("_mm_bogus_b")
	if len(logged) != 2 {
		t.Fatalf("logged %d times, want 2 (once per distinct name)", len(logged))
	}
	if n := UnknownOpCount(); n != 2 {
		t.Fatalf("UnknownOpCount = %d, want 2", n)
	}
	ops := UnknownOps()
	if len(ops) != 2 || ops[0] != "_mm_bogus_a" || ops[1] != "_mm_bogus_b" {
		t.Fatalf("UnknownOps = %v", ops)
	}
}

// TestRegistryOpsAllKnown sweeps representative names from every
// family the interpreter registers — including the integer-ALU ops
// that used to ride the silent default — and asserts none of them
// trips the unknown-op path.
func TestRegistryOpsAllKnown(t *testing.T) {
	ResetUnknownOps()
	defer ResetUnknownOps()
	known := []string{
		"_mm256_add_ps", "_mm256_mul_pd", "_mm256_fmadd_ps",
		"_mm256_loadu_ps", "_mm256_storeu_ps", "_mm256_set1_ps",
		"_mm256_add_epi32", "_mm256_and_si256", "_mm256_cmpeq_epi16",
		"_mm256_slli_epi32", "_mm256_max_epu8", "_mm256_hadd_epi16",
		"_mm256_castps_si256", "_mm256_stream_ps", "_mm_testz_si128",
		"_mm512_rol_epi32", "_mm_minpos_epu16", "_mm256_avg_epu8",
		"_mm256_sign_epi16", "_mm_rem_epi32", "loop.#0", "jni.call",
	}
	for _, name := range known {
		Classify(name)
	}
	if n := UnknownOpCount(); n != 0 {
		t.Fatalf("known ops flagged as unknown: %v", UnknownOps())
	}
}

// TestEveryRegisteredIntrinsicPriced sweeps the interpreter's entire
// executable registry through Classify: every op the vm can count must
// have an explicit price, so the unknown-op path only ever fires for
// genuinely alien names.
func TestEveryRegisteredIntrinsicPriced(t *testing.T) {
	ResetUnknownOps()
	defer ResetUnknownOps()
	names := vm.ImplementedNames()
	if len(names) == 0 {
		t.Fatal("empty intrinsic registry")
	}
	for _, name := range names {
		Classify(name)
	}
	if n := UnknownOpCount(); n != 0 {
		t.Fatalf("%d registered intrinsics priced by fallback: %v", n, UnknownOps())
	}
}

// scalarOps are the kernel compiler's scalar pseudo-ops and the
// separately accounted keys, as counters spell them.
var scalarOps = []string{
	"scalar.alu", "scalar.mul", "scalar.div", "scalar.fp", "scalar.fmul",
	"scalar.fdiv", "scalar.load", "scalar.load.strided", "scalar.store",
	"scalar.conv", "scalar.loop", "scalar.branch", "jni.call", "loop.#7",
}

// TestEstimatorCostMatchesClassify: an estimator's per-name price memo
// returns Classify's price for every registered intrinsic and every
// scalar pseudo-op, on the first lookup and from the memo after, and
// keeps each of them.
func TestEstimatorCostMatchesClassify(t *testing.T) {
	ResetUnknownOps()
	defer ResetUnknownOps()
	names := append(vm.ImplementedNames(), scalarOps...)
	e := NewEstimator(isa.Haswell)
	for pass := 0; pass < 2; pass++ {
		for _, name := range names {
			if got, want := e.cost(name), Classify(name); got != want {
				t.Fatalf("pass %d: cost(%s) = %+v, Classify = %+v", pass, name, got, want)
			}
		}
	}
	if len(e.costs) != len(names) {
		t.Errorf("memo holds %d names, want %d", len(e.costs), len(names))
	}
	if n := UnknownOpCount(); n != 0 {
		t.Errorf("known ops flagged as unknown: %v", UnknownOps())
	}
}

// TestEstimatorNotesUnknownOps: the memo keeps known names only, so
// every pricing of an unknown op still reaches the unknown-op record:
// an estimator logs it once however often it prices it, and once more
// after ResetUnknownOps.
func TestEstimatorNotesUnknownOps(t *testing.T) {
	ResetUnknownOps()
	orig := DebugLogf
	defer func() {
		ResetUnknownOps()
		DebugLogf = orig
	}()
	logged := 0
	DebugLogf = func(format string, args ...any) { logged++ }
	e := NewEstimator(isa.Haswell)
	counts := vm.Counter{"_mm_bogus_c": 3, "_mm256_add_ps": 1}
	e.Estimate(nil, counts, 64)
	e.Estimate(nil, counts, 64)
	if logged != 1 || UnknownOpCount() != 1 {
		t.Fatalf("logged %d times, %d unknown ops; want 1 and 1", logged, UnknownOpCount())
	}
	ResetUnknownOps()
	e.Estimate(nil, counts, 64)
	if logged != 2 || UnknownOpCount() != 1 {
		t.Fatalf("after reset: logged %d times, %d unknown ops; want 2 and 1", logged, UnknownOpCount())
	}
	if _, ok := e.costs["_mm_bogus_c"]; ok {
		t.Error("unknown op kept in the price memo")
	}
}
