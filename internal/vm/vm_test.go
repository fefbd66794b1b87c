package vm

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/isa"
)

func mach() *Machine { return NewMachine(isa.Haswell) }

func vecF32(xs ...float32) Vec {
	var v Vec
	for i, x := range xs {
		v.SetF32(i, x)
	}
	return v
}

func vecF64(xs ...float64) Vec {
	var v Vec
	for i, x := range xs {
		v.SetF64(i, x)
	}
	return v
}

func vecI8(xs ...int8) Vec {
	var v Vec
	for i, x := range xs {
		v.SetI8(i, x)
	}
	return v
}

func vecI16(xs ...int16) Vec {
	var v Vec
	for i, x := range xs {
		v.SetI16(i, x)
	}
	return v
}

func vecI32(xs ...int32) Vec {
	var v Vec
	for i, x := range xs {
		v.SetI32(i, x)
	}
	return v
}

func call(t *testing.T, name string, args ...Value) Value {
	t.Helper()
	out, err := mach().Call(name, args...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func TestAddPs256(t *testing.T) {
	a := vecF32(1, 2, 3, 4, 5, 6, 7, 8)
	b := vecF32(10, 20, 30, 40, 50, 60, 70, 80)
	out := call(t, "_mm256_add_ps", VecValue(a), VecValue(b))
	for i := 0; i < 8; i++ {
		want := float32(11 * (i + 1))
		if out.V.F32(i) != want {
			t.Errorf("lane %d = %v, want %v", i, out.V.F32(i), want)
		}
	}
}

func TestFmaddMatchesFusedSemantics(t *testing.T) {
	// 1e8 + 1 − 1e8 loses the 1 with separate rounding but keeps it when
	// fused with a multiplier chosen to expose the difference.
	a := vecF32(1 + 0x1p-12)
	b := vecF32(1 + 0x1p-12)
	c := vecF32(-(1 + 0x1p-11))
	out := call(t, "_mm256_fmadd_ps", VecValue(a), VecValue(b), VecValue(c))
	want := float32(math.FMA(float64(a.F32(0)), float64(b.F32(0)), float64(c.F32(0))))
	if out.V.F32(0) != want {
		t.Errorf("fused result %g, want %g", out.V.F32(0), want)
	}
	sep := a.F32(0)*b.F32(0) + c.F32(0)
	if want == sep {
		t.Skip("test inputs did not expose fusion; pick better constants")
	}
}

func TestUnpackloPs(t *testing.T) {
	a := vecF32(0, 1, 2, 3, 4, 5, 6, 7)
	b := vecF32(10, 11, 12, 13, 14, 15, 16, 17)
	out := call(t, "_mm256_unpacklo_ps", VecValue(a), VecValue(b))
	want := []float32{0, 10, 1, 11, 4, 14, 5, 15}
	for i, w := range want {
		if out.V.F32(i) != w {
			t.Errorf("lane %d = %v, want %v", i, out.V.F32(i), w)
		}
	}
	out = call(t, "_mm256_unpackhi_ps", VecValue(a), VecValue(b))
	want = []float32{2, 12, 3, 13, 6, 16, 7, 17}
	for i, w := range want {
		if out.V.F32(i) != w {
			t.Errorf("hi lane %d = %v, want %v", i, out.V.F32(i), w)
		}
	}
}

func TestShufflePs(t *testing.T) {
	a := vecF32(0, 1, 2, 3, 4, 5, 6, 7)
	b := vecF32(10, 11, 12, 13, 14, 15, 16, 17)
	// imm 68 = 0b01000100: a[0],a[1],b[0],b[1] per lane.
	out := call(t, "_mm256_shuffle_ps", VecValue(a), VecValue(b), IntValue(68))
	want := []float32{0, 1, 10, 11, 4, 5, 14, 15}
	for i, w := range want {
		if out.V.F32(i) != w {
			t.Errorf("lane %d = %v, want %v", i, out.V.F32(i), w)
		}
	}
	// imm 238 = 0b11101110: a[2],a[3],b[2],b[3].
	out = call(t, "_mm256_shuffle_ps", VecValue(a), VecValue(b), IntValue(238))
	want = []float32{2, 3, 12, 13, 6, 7, 16, 17}
	for i, w := range want {
		if out.V.F32(i) != w {
			t.Errorf("imm238 lane %d = %v, want %v", i, out.V.F32(i), w)
		}
	}
}

func TestPermute2f128(t *testing.T) {
	a := vecF32(0, 1, 2, 3, 4, 5, 6, 7)
	b := vecF32(10, 11, 12, 13, 14, 15, 16, 17)
	// 0x20: low = a.lo, high = b.lo.
	out := call(t, "_mm256_permute2f128_ps", VecValue(a), VecValue(b), IntValue(0x20))
	want := []float32{0, 1, 2, 3, 10, 11, 12, 13}
	for i, w := range want {
		if out.V.F32(i) != w {
			t.Errorf("0x20 lane %d = %v, want %v", i, out.V.F32(i), w)
		}
	}
	// 0x31: low = a.hi, high = b.hi.
	out = call(t, "_mm256_permute2f128_ps", VecValue(a), VecValue(b), IntValue(0x31))
	want = []float32{4, 5, 6, 7, 14, 15, 16, 17}
	for i, w := range want {
		if out.V.F32(i) != w {
			t.Errorf("0x31 lane %d = %v, want %v", i, out.V.F32(i), w)
		}
	}
}

// TestTranspose8x8 runs the paper's Figure 5 transpose network directly
// against the vm and checks it transposes an 8×8 tile.
func TestTranspose8x8(t *testing.T) {
	m := mach()
	row := make([]Vec, 8)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			row[r].SetF32(c, float32(r*8+c))
		}
	}
	callv := func(name string, args ...Value) Vec {
		out, err := m.Call(name, args...)
		if err != nil {
			t.Fatal(err)
		}
		return *out.V
	}
	// Stage 1: unpacklo/unpackhi pairs.
	var tt []Vec
	for i := 0; i < 8; i += 2 {
		tt = append(tt,
			callv("_mm256_unpacklo_ps", VecValue(row[i]), VecValue(row[i+1])),
			callv("_mm256_unpackhi_ps", VecValue(row[i]), VecValue(row[i+1])))
	}
	// Stage 2: shuffle groups of 4.
	var ss []Vec
	for g := 0; g < 2; g++ {
		a, b, c, d := tt[4*g], tt[4*g+1], tt[4*g+2], tt[4*g+3]
		ss = append(ss,
			callv("_mm256_shuffle_ps", VecValue(a), VecValue(c), IntValue(68)),
			callv("_mm256_shuffle_ps", VecValue(a), VecValue(c), IntValue(238)),
			callv("_mm256_shuffle_ps", VecValue(b), VecValue(d), IntValue(68)),
			callv("_mm256_shuffle_ps", VecValue(b), VecValue(d), IntValue(238)))
	}
	// Stage 3: permute2f128 zip.
	var out []Vec
	for i := 0; i < 4; i++ {
		out = append(out, callv("_mm256_permute2f128_ps", VecValue(ss[i]), VecValue(ss[i+4]), IntValue(0x20)))
	}
	for i := 0; i < 4; i++ {
		out = append(out, callv("_mm256_permute2f128_ps", VecValue(ss[i]), VecValue(ss[i+4]), IntValue(0x31)))
	}
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if got, want := out[r].F32(c), float32(c*8+r); got != want {
				t.Fatalf("transposed[%d][%d] = %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestMaddubsSignChain(t *testing.T) {
	// The 8-bit dot-product core: sign(a,b) restores signedness so
	// maddubs(|a|, sign(b,a)) accumulates a·b pairs.
	a := vecI8(-3, 5, 7, -2)
	b := vecI8(4, -6, 2, 8)
	absA := call(t, "_mm256_abs_epi8", VecValue(a))
	signB := call(t, "_mm256_sign_epi8", VecValue(b), VecValue(a))
	prod := call(t, "_mm256_maddubs_epi16", absA, signB)
	// Lane 0: |−3|·sign(4,−3) + |5|·sign(−6,5) = 3·(−4) + 5·(−6) = −42.
	if got := prod.V.I16(0); got != -42 {
		t.Errorf("maddubs pair 0 = %d, want -42", got)
	}
	// Lane 1: 7·2 + 2·(−8)... sign(8,−2) = −8 → 14 − 16 = −2.
	if got := prod.V.I16(1); got != -2 {
		t.Errorf("maddubs pair 1 = %d, want -2", got)
	}
}

func TestMaddEpi16(t *testing.T) {
	a := vecI16(100, 200, -300, 400)
	b := vecI16(7, -8, 9, 10)
	out := call(t, "_mm256_madd_epi16", VecValue(a), VecValue(b))
	if got := out.V.I32(0); got != 100*7-200*8 {
		t.Errorf("madd lane 0 = %d", got)
	}
	if got := out.V.I32(1); got != -300*9+400*10 {
		t.Errorf("madd lane 1 = %d", got)
	}
}

func TestMaddubsSaturates(t *testing.T) {
	var a, b Vec
	a.SetU8(0, 255)
	a.SetU8(1, 255)
	b.SetI8(0, 127)
	b.SetI8(1, 127)
	out := call(t, "_mm_maddubs_epi16", VecValue(a), VecValue(b))
	if got := out.V.I16(0); got != 32767 {
		t.Errorf("maddubs saturation = %d, want 32767", got)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	buf := PinF32([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	v := call(t, "_mm256_loadu_ps", PtrValue(buf, 1))
	if v.V.F32(0) != 2 || v.V.F32(7) != 9 {
		t.Fatalf("load at offset 1: %v…%v", v.V.F32(0), v.V.F32(7))
	}
	dst := NewBuffer(isa.PrimF32, 10)
	call(t, "_mm256_storeu_ps", PtrValue(dst, 2), v)
	if dst.F32At(2) != 2 || dst.F32At(9) != 9 {
		t.Fatal("store did not round-trip")
	}
}

func TestLoadOutOfBoundsErrors(t *testing.T) {
	buf := PinF32(make([]float32, 4))
	if _, err := mach().Call("_mm256_loadu_ps", PtrValue(buf, 0)); err == nil {
		t.Error("8-float load from 4-float buffer must error")
	}
	if _, err := mach().Call("_mm256_loadu_ps", PtrValue(buf, -1)); err == nil {
		t.Error("negative offset must error")
	}
}

func TestSet1AndSetzero(t *testing.T) {
	v := call(t, "_mm256_set1_ps", F32Value(3.5))
	for i := 0; i < 8; i++ {
		if v.V.F32(i) != 3.5 {
			t.Fatalf("set1 lane %d = %v", i, v.V.F32(i))
		}
	}
	z := call(t, "_mm256_setzero_ps")
	for i := 0; i < 8; i++ {
		if z.V.F32(i) != 0 {
			t.Fatalf("setzero lane %d = %v", i, z.V.F32(i))
		}
	}
	s := call(t, "_mm256_set_ps", F32Value(7), F32Value(6), F32Value(5),
		F32Value(4), F32Value(3), F32Value(2), F32Value(1), F32Value(0))
	for i := 0; i < 8; i++ {
		if s.V.F32(i) != float32(i) {
			t.Fatalf("set_ps lane %d = %v (args are high-first)", i, s.V.F32(i))
		}
	}
}

func TestHaddReduce(t *testing.T) {
	// Sum 8 floats with hadd+extract — the reduce pattern dot products
	// use.
	a := vecF32(1, 2, 3, 4, 5, 6, 7, 8)
	h1 := call(t, "_mm256_hadd_ps", VecValue(a), VecValue(a))
	h2 := call(t, "_mm256_hadd_ps", h1, h1)
	lo := call(t, "_mm256_castps256_ps128", h2)
	hi := call(t, "_mm256_extractf128_ps", h2, IntValue(1))
	sum := call(t, "_mm_add_ps", lo, hi)
	got := call(t, "_mm_cvtss_f32", sum)
	if got.AsFloat() != 36 {
		t.Errorf("reduce sum = %v, want 36", got.AsFloat())
	}
}

func TestCvtphRoundTrip(t *testing.T) {
	vals := []float32{0, 1, -1, 0.5, 65504, 0.0001, 3.14159, -2.71828}
	var packed Vec
	for i, x := range vals {
		packed.SetU16(i, F16FromF32(x))
	}
	out := call(t, "_mm256_cvtph_ps", VecValue(packed))
	for i, x := range vals {
		got := out.V.F32(i)
		rel := math.Abs(float64(got-x)) / math.Max(1e-9, math.Abs(float64(x)))
		if x != 0 && rel > 1e-3 {
			t.Errorf("half round-trip of %g = %g (rel err %g)", x, got, rel)
		}
	}
	back := call(t, "_mm256_cvtps_ph", out, IntValue(0))
	for i := range vals {
		if back.V.U16(i) != packed.U16(i) {
			t.Errorf("cvtps_ph lane %d = %#x, want %#x", i, back.V.U16(i), packed.U16(i))
		}
	}
}

func TestFloat16Properties(t *testing.T) {
	if F16FromF32(0) != 0 {
		t.Error("half(0) != +0")
	}
	if F16FromF32(float32(math.Inf(1))) != 0x7C00 {
		t.Error("half(+Inf) wrong")
	}
	if F32FromF16(0x7C00) != float32(math.Inf(1)) {
		t.Error("unhalf(+Inf) wrong")
	}
	if !math.IsNaN(float64(F32FromF16(0x7E00))) {
		t.Error("unhalf(NaN) wrong")
	}
	// Round-trip is exact for every representable half.
	for h := 0; h < 1<<16; h++ {
		f := F32FromF16(uint16(h))
		if math.IsNaN(float64(f)) {
			continue
		}
		if got := F16FromF32(f); got != uint16(h) {
			t.Fatalf("half %#04x → %g → %#04x", h, f, got)
		}
	}
}

func TestQuickHalfConversionMonotone(t *testing.T) {
	// Property: conversion to half never increases magnitude error beyond
	// half-ULP of the half format (2^-11 relative for normals).
	err := quick.Check(func(x float32) bool {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		if x > 65504 || x < -65504 || (x != 0 && math.Abs(float64(x)) < 6.1e-5) {
			return true // outside the half normal range
		}
		h := F16FromF32(x)
		back := F32FromF16(h)
		rel := math.Abs(float64(back-x)) / math.Abs(float64(x))
		return x == 0 || rel <= 1.0/2048
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Error(err)
	}
}

func TestRdrandWritesDeterministically(t *testing.T) {
	m1, m2 := mach(), mach()
	buf1 := NewBuffer(isa.PrimU16, 1)
	buf2 := NewBuffer(isa.PrimU16, 1)
	r1, err := m1.Call("_rdrand16_step", PtrValue(buf1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r1.AsInt() != 1 {
		t.Error("rdrand must report success")
	}
	if _, err := m2.Call("_rdrand16_step", PtrValue(buf2, 0)); err != nil {
		t.Fatal(err)
	}
	if buf1.IntAt(0) != buf2.IntAt(0) {
		t.Error("seeded rdrand must be deterministic across machines")
	}
	// And successive draws differ.
	prev := buf1.IntAt(0)
	if _, err := m1.Call("_rdrand16_step", PtrValue(buf1, 0)); err != nil {
		t.Fatal(err)
	}
	if buf1.IntAt(0) == prev {
		t.Error("successive rdrand draws should differ")
	}
}

func TestMovemaskAndBlendv(t *testing.T) {
	a := vecF32(1, -1, 2, -2)
	mask := call(t, "_mm_cmplt_ps", VecValue(a), VecValue(Vec{}))
	bits := call(t, "_mm_movemask_ps", mask)
	if bits.AsInt() != 0b1010 {
		t.Errorf("movemask = %b, want 1010", bits.AsInt())
	}
	sel := call(t, "_mm_blendv_ps", VecValue(vecF32(0, 0, 0, 0)),
		VecValue(vecF32(9, 9, 9, 9)), mask)
	want := []float32{0, 9, 0, 9}
	for i, w := range want {
		if sel.V.F32(i) != w {
			t.Errorf("blendv lane %d = %v, want %v", i, sel.V.F32(i), w)
		}
	}
}

func TestGatherPs(t *testing.T) {
	buf := PinF32([]float32{0, 10, 20, 30, 40, 50, 60, 70, 80, 90})
	idx := vecI32(9, 0, 3, 1, 7, 2, 5, 4)
	out := call(t, "_mm256_i32gather_ps", PtrValue(buf, 0), VecValue(idx), IntValue(4))
	want := []float32{90, 0, 30, 10, 70, 20, 50, 40}
	for i, w := range want {
		if out.V.F32(i) != w {
			t.Errorf("gather lane %d = %v, want %v", i, out.V.F32(i), w)
		}
	}
}

func TestSadAndAvg(t *testing.T) {
	var a, b Vec
	for i := 0; i < 8; i++ {
		a.SetU8(i, uint8(i*10))
		b.SetU8(i, uint8(i*10+3))
	}
	out := call(t, "_mm_sad_epu8", VecValue(a), VecValue(b))
	if out.V.U64(0) != 24 {
		t.Errorf("sad = %d, want 24", out.V.U64(0))
	}
	av := call(t, "_mm_avg_epu8", VecValue(a), VecValue(b))
	if av.V.U8(0) != 2 { // (0+3+1)/2 = 2
		t.Errorf("avg lane 0 = %d, want 2", av.V.U8(0))
	}
}

func TestSaturatingAdds(t *testing.T) {
	a := vecI8(120, -120)
	b := vecI8(100, -100)
	out := call(t, "_mm_adds_epi8", VecValue(a), VecValue(b))
	if out.V.I8(0) != 127 || out.V.I8(1) != -128 {
		t.Errorf("adds_epi8 = %d,%d", out.V.I8(0), out.V.I8(1))
	}
}

func TestShiftsAndLogic(t *testing.T) {
	a := vecI32(-8, 16, -32, 64)
	sra := call(t, "_mm_srai_epi32", VecValue(a), IntValue(2))
	if sra.V.I32(0) != -2 || sra.V.I32(1) != 4 {
		t.Errorf("srai = %d,%d", sra.V.I32(0), sra.V.I32(1))
	}
	srl := call(t, "_mm_srli_epi32", VecValue(a), IntValue(2))
	if srl.V.U32(0) != 0x3FFFFFFE {
		t.Errorf("srli = %#x", srl.V.U32(0))
	}
	sll := call(t, "_mm_slli_epi32", VecValue(a), IntValue(1))
	if sll.V.I32(1) != 32 {
		t.Errorf("slli = %d", sll.V.I32(1))
	}
}

func TestCountsAccumulate(t *testing.T) {
	m := mach()
	a := VecValue(vecF32(1, 2, 3, 4, 5, 6, 7, 8))
	for i := 0; i < 5; i++ {
		if _, err := m.Call("_mm256_add_ps", a, a); err != nil {
			t.Fatal(err)
		}
	}
	if m.Counts["_mm256_add_ps"] != 5 {
		t.Errorf("count = %d, want 5", m.Counts["_mm256_add_ps"])
	}
	m.Counts.Reset()
	if m.Counts.Total() != 0 {
		t.Error("reset failed")
	}
}

func TestUnknownIntrinsicErrors(t *testing.T) {
	if _, err := mach().Call("_mm256_definitely_not_real_ps"); err == nil {
		t.Error("unknown intrinsic must error")
	}
}

func TestImplementedCount(t *testing.T) {
	if n := ImplementedCount(); n < 300 {
		t.Errorf("only %d intrinsics have executable semantics; expected 300+", n)
	}
}

func TestQuickVecRoundTrip(t *testing.T) {
	err := quick.Check(func(xs [8]int32) bool {
		var v Vec
		for i, x := range xs {
			v.SetI32(i, x)
		}
		for i, x := range xs {
			if v.I32(i) != x {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestCrc32MatchesKnownVector(t *testing.T) {
	// CRC32C of the byte 0x00 with initial CRC 0 is 0x00000000; of 0xFF
	// with 0 is 0xAD7D5351 per the Castagnoli reference tables.
	out := call(t, "_mm_crc32_u8", Value{Kind: ir.KindU32, U: 0}, IntValue(0xFF))
	if uint32(out.AsInt()) != 0xAD7D5351 {
		t.Errorf("crc32c(0xFF) = %#x, want 0xAD7D5351", uint32(out.AsInt()))
	}
}

// TestVecBytesBounds locks in the typed bounds error on register reads.
func TestVecBytesBounds(t *testing.T) {
	var v Vec
	if _, err := v.Bytes(64); err != nil {
		t.Errorf("64 bytes is the full register, want success: %v", err)
	}
	for _, n := range []int{-1, 65, 1 << 20} {
		_, err := v.Bytes(n)
		re, ok := err.(*RangeError)
		if !ok {
			t.Fatalf("Bytes(%d): want *RangeError, got %v", n, err)
		}
		if re.N != n || re.Cap != 64 {
			t.Errorf("Bytes(%d): error carries %+v", n, re)
		}
	}
	if _, err := VecFromBytesErr(make([]byte, 65)); err == nil {
		t.Error("VecFromBytesErr must reject 65 bytes")
	}
	if _, err := VecFromBytesErr(make([]byte, 64)); err != nil {
		t.Errorf("VecFromBytesErr must accept 64 bytes: %v", err)
	}
}

// TestValueIsThin pins the interpreter value's size: Kind and B share a
// word and a register is referred to, not held, so copying a Value
// moves seven words rather than a 64-byte register.
func TestValueIsThin(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 56 {
		t.Fatalf("unsafe.Sizeof(vm.Value{}) = %d, want <= 56", n)
	}
}
