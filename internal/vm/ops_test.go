package vm

import (
	"math"
	"testing"

	"repro/internal/ir"
)

// Edge-case coverage for the swizzle, pack and integer families.

func TestAlignr(t *testing.T) {
	var a, b Vec
	for i := 0; i < 16; i++ {
		a.SetU8(i, uint8(0x10+i)) // high half of the concatenation
		b.SetU8(i, uint8(i))      // low half
	}
	out := call(t, "_mm_alignr_epi8", VecValue(a), VecValue(b), IntValue(4))
	// Result = bytes 4..19 of b:a.
	for i := 0; i < 12; i++ {
		if out.V.U8(i) != uint8(4+i) {
			t.Fatalf("byte %d = %#x", i, out.V.U8(i))
		}
	}
	for i := 12; i < 16; i++ {
		if out.V.U8(i) != uint8(0x10+i-12) {
			t.Fatalf("byte %d = %#x", i, out.V.U8(i))
		}
	}
	// Shift ≥ 32 zeroes everything.
	out = call(t, "_mm_alignr_epi8", VecValue(a), VecValue(b), IntValue(33))
	for i := 0; i < 16; i++ {
		if out.V.U8(i) != 0 {
			t.Fatalf("alignr(33) byte %d = %#x", i, out.V.U8(i))
		}
	}
}

func TestShuffleEpi8HighBitZeroes(t *testing.T) {
	var a, ctrl Vec
	for i := 0; i < 16; i++ {
		a.SetU8(i, uint8(100+i))
	}
	ctrl.SetU8(0, 5)
	ctrl.SetU8(1, 0x80) // high bit → zero
	ctrl.SetU8(2, 0x8F) // high bit → zero even with index bits
	ctrl.SetU8(3, 15)
	out := call(t, "_mm_shuffle_epi8", VecValue(a), VecValue(ctrl))
	if out.V.U8(0) != 105 || out.V.U8(1) != 0 || out.V.U8(2) != 0 || out.V.U8(3) != 115 {
		t.Errorf("pshufb = %d,%d,%d,%d", out.V.U8(0), out.V.U8(1), out.V.U8(2), out.V.U8(3))
	}
}

func TestShuffleEpi8PerLane(t *testing.T) {
	// AVX2 pshufb must not cross 128-bit lanes.
	var a, ctrl Vec
	for i := 0; i < 32; i++ {
		a.SetU8(i, uint8(i))
		ctrl.SetU8(i, 0) // every control selects lane-local byte 0
	}
	out := call(t, "_mm256_shuffle_epi8", VecValue(a), VecValue(ctrl))
	if out.V.U8(0) != 0 || out.V.U8(16) != 16 {
		t.Errorf("cross-lane pshufb: low %d, high %d (want 0, 16)",
			out.V.U8(0), out.V.U8(16))
	}
}

func TestPacksSaturation(t *testing.T) {
	a := vecI16(300, -300, 127, -128, 0, 1, -1, 32767)
	out := call(t, "_mm_packs_epi16", VecValue(a), VecValue(a))
	want := []int8{127, -128, 127, -128, 0, 1, -1, 127}
	for i, w := range want {
		if out.V.I8(i) != w {
			t.Errorf("packs lane %d = %d, want %d", i, out.V.I8(i), w)
		}
	}
	outU := call(t, "_mm_packus_epi16", VecValue(a), VecValue(a))
	wantU := []uint8{255, 0, 127, 0, 0, 1, 0, 255}
	for i, w := range wantU {
		if outU.V.U8(i) != w {
			t.Errorf("packus lane %d = %d, want %d", i, outU.V.U8(i), w)
		}
	}
}

func TestUnpackEpi32Lanes(t *testing.T) {
	a := vecI32(0, 1, 2, 3, 4, 5, 6, 7)
	b := vecI32(10, 11, 12, 13, 14, 15, 16, 17)
	out := call(t, "_mm256_unpacklo_epi32", VecValue(a), VecValue(b))
	want := []int32{0, 10, 1, 11, 4, 14, 5, 15}
	for i, w := range want {
		if out.V.I32(i) != w {
			t.Errorf("unpacklo_epi32 lane %d = %d, want %d", i, out.V.I32(i), w)
		}
	}
}

// TestUnpackMMXInterleavesHalves: the 64-bit forms interleave the low
// (high) four bytes of a 64-bit register, Intel's example for
// _mm_unpacklo_pi8 being [1..8], [9..16] → 1 9 2 10 3 11 4 12.
func TestUnpackMMXInterleavesHalves(t *testing.T) {
	var a, b Vec
	for i := 0; i < 8; i++ {
		a.SetU8(i, uint8(1+i))
		b.SetU8(i, uint8(9+i))
	}
	// Bytes past the 64-bit register must be ignored.
	a.SetU8(8, 0xEE)
	b.SetU8(8, 0xEE)
	for name, want := range map[string][8]uint8{
		"_mm_unpacklo_pi8": {1, 9, 2, 10, 3, 11, 4, 12},
		"_mm_unpackhi_pi8": {5, 13, 6, 14, 7, 15, 8, 16},
	} {
		out := call(t, name, VecValue(a), VecValue(b))
		var w Vec
		for i, x := range want {
			w.SetU8(i, x)
		}
		if *out.V != w {
			t.Errorf("%s = %v, want %v", name, out.V, &w)
		}
	}
}

// TestMinMaxFollowIntel holds the float min and max, packed and
// scalar, at every width, to Intel's MIN(a, b) = (a < b ? a : b) and
// MAX(a, b) = (a > b ? a : b): a NaN in either position, or a tie of
// +0 and -0, gives b's lane, bit for bit.
func TestMinMaxFollowIntel(t *testing.T) {
	// Payloads in the top mantissa bits survive narrowing to f32.
	nan1, nan2 := math.Float64frombits(0x7FF8000020000000), math.Float64frombits(0x7FF8000040000000)
	negZero := math.Copysign(0, -1)
	cases := []struct{ a, b, min, max float64 }{
		{1, 2, 1, 2},
		{2, 1, 1, 2},
		{nan1, 1, 1, 1},
		{1, nan1, nan1, nan1},
		{nan1, nan2, nan2, nan2},
		{0, negZero, negZero, negZero},
		{negZero, 0, 0, 0},
	}
	for _, name := range []string{
		"_mm_min_ps", "_mm256_min_ps", "_mm512_min_ps", "_mm_min_pd", "_mm256_min_pd", "_mm512_min_pd",
		"_mm_max_ps", "_mm256_max_ps", "_mm512_max_ps", "_mm_max_pd", "_mm256_max_pd", "_mm512_max_pd",
		"_mm_min_ss", "_mm_max_ss", "_mm_min_sd", "_mm_max_sd",
	} {
		width, op, elem := refShape(name)
		f32 := elem == "ps" || elem == "ss"
		lanes := width / 8
		if f32 {
			lanes = width / 4
		}
		if elem == "ss" || elem == "sd" {
			lanes = 1
		}
		for _, c := range cases {
			var a, b Vec
			for i := 0; i < lanes; i++ {
				if f32 {
					a.SetF32(i, float32(c.a))
					b.SetF32(i, float32(c.b))
				} else {
					a.SetF64(i, c.a)
					b.SetF64(i, c.b)
				}
			}
			want := c.min
			if op == "max" {
				want = c.max
			}
			out := call(t, name, VecValue(a), VecValue(b))
			for i := 0; i < lanes; i++ {
				var got, w uint64
				if f32 {
					got, w = uint64(out.V.U32(i)), uint64(math.Float32bits(float32(want)))
				} else {
					got, w = out.V.U64(i), math.Float64bits(want)
				}
				if got != w {
					t.Errorf("%s(%v, %v) lane %d = %#x, want %#x", name, c.a, c.b, i, got, w)
				}
			}
		}
	}
}

func TestPermute4x64(t *testing.T) {
	var a Vec
	for i := 0; i < 4; i++ {
		a.SetI64(i, int64(100+i))
	}
	// imm 0b00011011 = reverse.
	out := call(t, "_mm256_permute4x64_epi64", VecValue(a), IntValue(0x1B))
	for i := 0; i < 4; i++ {
		if out.V.I64(i) != int64(103-i) {
			t.Errorf("permute4x64 lane %d = %d", i, out.V.I64(i))
		}
	}
}

func TestPermutevar8x32(t *testing.T) {
	a := vecF32(0, 10, 20, 30, 40, 50, 60, 70)
	idx := vecI32(7, 6, 5, 4, 3, 2, 1, 0)
	out := call(t, "_mm256_permutevar8x32_ps", VecValue(a), VecValue(idx))
	for i := 0; i < 8; i++ {
		if out.V.F32(i) != float32((7-i)*10) {
			t.Errorf("permutevar lane %d = %v", i, out.V.F32(i))
		}
	}
}

func TestBlendImmPerLaneRepeat(t *testing.T) {
	// blend_epi16 repeats the 8-bit immediate per 128-bit lane.
	var a, b Vec
	for i := 0; i < 16; i++ {
		a.SetI16(i, 1)
		b.SetI16(i, 2)
	}
	out := call(t, "_mm256_blend_epi16", VecValue(a), VecValue(b), IntValue(0b10101010))
	for i := 0; i < 16; i++ {
		want := int16(1)
		if i%2 == 1 {
			want = 2
		}
		if out.V.I16(i) != want {
			t.Errorf("blend_epi16 lane %d = %d, want %d", i, out.V.I16(i), want)
		}
	}
}

func TestInsertExtract128(t *testing.T) {
	a := vecF32(0, 1, 2, 3, 4, 5, 6, 7)
	hi := call(t, "_mm256_extractf128_ps", VecValue(a), IntValue(1))
	if hi.V.F32(0) != 4 || hi.V.F32(3) != 7 {
		t.Errorf("extract hi = %v..%v", hi.V.F32(0), hi.V.F32(3))
	}
	ins := call(t, "_mm256_insertf128_ps", VecValue(a), hi, IntValue(0))
	if ins.V.F32(0) != 4 || ins.V.F32(4) != 4 {
		t.Errorf("insert low = %v, high stays %v", ins.V.F32(0), ins.V.F32(4))
	}
}

func TestMinposEpu16(t *testing.T) {
	var a Vec
	vals := []uint16{9, 4, 7, 4, 100, 50, 30, 8}
	for i, v := range vals {
		a.SetU16(i, v)
	}
	out := call(t, "_mm_minpos_epu16", VecValue(a))
	if out.V.U16(0) != 4 || out.V.U16(1) != 1 {
		t.Errorf("minpos = (%d, idx %d), want (4, idx 1)", out.V.U16(0), out.V.U16(1))
	}
}

func TestMulhiMullo(t *testing.T) {
	a := vecI16(1000, -1000)
	b := vecI16(2000, 2000)
	lo := call(t, "_mm_mullo_epi16", VecValue(a), VecValue(b))
	hi := call(t, "_mm_mulhi_epi16", VecValue(a), VecValue(b))
	full := int32(1000) * 2000
	if lo.V.I16(0) != int16(full) || hi.V.I16(0) != int16(full>>16) {
		t.Errorf("1000*2000: lo %d hi %d", lo.V.I16(0), hi.V.I16(0))
	}
	fullNeg := int32(-1000) * 2000
	if hi.V.I16(1) != int16(fullNeg>>16) {
		t.Errorf("-1000*2000 hi = %d, want %d", hi.V.I16(1), int16(fullNeg>>16))
	}
}

func TestMulEpi32EvenLanes(t *testing.T) {
	a := vecI32(3, 999, -4, 999)
	b := vecI32(5, 999, 6, 999)
	out := call(t, "_mm_mul_epi32", VecValue(a), VecValue(b))
	if out.V.I64(0) != 15 || out.V.I64(1) != -24 {
		t.Errorf("mul_epi32 = %d, %d", out.V.I64(0), out.V.I64(1))
	}
}

func TestCvtRounding(t *testing.T) {
	a := vecF32(1.5, 2.5, -1.5, 1.7)
	rounded := call(t, "_mm_cvtps_epi32", VecValue(a))
	// Round-to-nearest-even: 1.5→2, 2.5→2, −1.5→−2, 1.7→2.
	want := []int32{2, 2, -2, 2}
	for i, w := range want {
		if rounded.V.I32(i) != w {
			t.Errorf("cvtps lane %d = %d, want %d", i, rounded.V.I32(i), w)
		}
	}
	trunc := call(t, "_mm_cvttps_epi32", VecValue(a))
	wantT := []int32{1, 2, -1, 1}
	for i, w := range wantT {
		if trunc.V.I32(i) != w {
			t.Errorf("cvttps lane %d = %d, want %d", i, trunc.V.I32(i), w)
		}
	}
}

func TestHaddPd(t *testing.T) {
	a := vecF64(1, 2, 3, 4)
	b := vecF64(10, 20, 30, 40)
	out := call(t, "_mm256_hadd_pd", VecValue(a), VecValue(b))
	want := []float64{3, 30, 7, 70}
	for i, w := range want {
		if out.V.F64(i) != w {
			t.Errorf("hadd_pd lane %d = %v, want %v", i, out.V.F64(i), w)
		}
	}
}

func TestDpPs(t *testing.T) {
	a := vecF32(1, 2, 3, 4)
	b := vecF32(5, 6, 7, 8)
	// Multiply all four lanes (0xF0), broadcast to lanes 0 and 2 (0x05).
	out := call(t, "_mm_dp_ps", VecValue(a), VecValue(b), IntValue(0xF5))
	if out.V.F32(0) != 70 || out.V.F32(2) != 70 || out.V.F32(1) != 0 {
		t.Errorf("dp_ps = %v,%v,%v", out.V.F32(0), out.V.F32(1), out.V.F32(2))
	}
}

func TestPextPdep(t *testing.T) {
	x := Value{Kind: ir.KindU32, U: 0b10110010}
	mask := Value{Kind: ir.KindU32, U: 0b11110000}
	out := call(t, "_pext_u32", x, mask)
	if out.U != 0b1011 {
		t.Errorf("pext = %b", out.U)
	}
	dep := call(t, "_pdep_u32", Value{Kind: ir.KindU32, U: 0b1011}, mask)
	if dep.U != 0b10110000 {
		t.Errorf("pdep = %b", dep.U)
	}
}

func TestMaskLoadStore(t *testing.T) {
	buf := PinF32([]float32{1, 2, 3, 4, 5, 6, 7, 8})
	var mask Vec
	for i := 0; i < 8; i += 2 {
		mask.SetI32(i, -1) // sign bit set → selected
	}
	out := call(t, "_mm256_maskload_ps", PtrValue(buf, 0), VecValue(mask))
	for i := 0; i < 8; i++ {
		want := float32(0)
		if i%2 == 0 {
			want = float32(i + 1)
		}
		if out.V.F32(i) != want {
			t.Errorf("maskload lane %d = %v, want %v", i, out.V.F32(i), want)
		}
	}
	dst := NewBuffer(buf.Prim, 8)
	call(t, "_mm256_maskstore_ps", PtrValue(dst, 0), VecValue(mask), out)
	if dst.F32At(0) != 1 || dst.F32At(1) != 0 || dst.F32At(2) != 3 {
		t.Errorf("maskstore = %v,%v,%v", dst.F32At(0), dst.F32At(1), dst.F32At(2))
	}
	// Masked lanes never touch memory: a masked-off OOB lane is safe.
	short := PinF32([]float32{1})
	var one Vec
	one.SetI32(0, -1)
	if _, err := mach().Call("_mm256_maskload_ps", PtrValue(short, 0), VecValue(one)); err != nil {
		t.Errorf("masked-off OOB lanes must not fault: %v", err)
	}
}

func TestSignZeroes(t *testing.T) {
	a := vecI8(5, 5, 5)
	b := vecI8(1, 0, -1)
	out := call(t, "_mm_sign_epi8", VecValue(a), VecValue(b))
	if out.V.I8(0) != 5 || out.V.I8(1) != 0 || out.V.I8(2) != -5 {
		t.Errorf("sign = %d,%d,%d", out.V.I8(0), out.V.I8(1), out.V.I8(2))
	}
}

func TestAvx512MaskOps(t *testing.T) {
	var a, b Vec
	for i := 0; i < 16; i++ {
		a.SetI32(i, int32(i))
		b.SetI32(i, int32(i%2))
	}
	k := call(t, "_mm512_cmpeq_epi32_mask", VecValue(a), VecValue(b))
	if k.V.U16(0) != 0b11 { // lanes 0 (0==0) and 1 (1==1)
		t.Errorf("cmpeq mask = %b", k.V.U16(0))
	}
	src := call(t, "_mm512_set1_ps", F32Value(-1))
	sum := call(t, "_mm512_mask_add_ps", src, k, VecValue(vecF32(1, 1)), VecValue(vecF32(2, 2)))
	if sum.V.F32(0) != 3 || sum.V.F32(2) != -1 {
		t.Errorf("mask_add = %v, %v", sum.V.F32(0), sum.V.F32(2))
	}
}

func TestReduceAddPs512(t *testing.T) {
	var a Vec
	for i := 0; i < 16; i++ {
		a.SetF32(i, float32(i+1))
	}
	out := call(t, "_mm512_reduce_add_ps", VecValue(a))
	if out.AsFloat() != 136 {
		t.Errorf("reduce_add = %v, want 136", out.AsFloat())
	}
}

func TestVariableShifts(t *testing.T) {
	a := vecI32(1, 1, 1, 1, 1, 1, 1, 1)
	cnt := vecI32(0, 1, 2, 3, 31, 32, 40, 4)
	out := call(t, "_mm256_sllv_epi32", VecValue(a), VecValue(cnt))
	want := []uint32{1, 2, 4, 8, 1 << 31, 0, 0, 16}
	for i, w := range want {
		if out.V.U32(i) != w {
			t.Errorf("sllv lane %d = %d, want %d", i, out.V.U32(i), w)
		}
	}
}

func TestStringCompareIntrinsics(t *testing.T) {
	var a, b Vec
	copy(a.b[:], "hello world!!!!!")
	copy(b.b[:], "hello_world!!!!!")
	idx := call(t, "_mm_cmpistri", VecValue(a), VecValue(b))
	if idx.AsInt() != 5 { // first mismatch at '_' vs ' '
		t.Errorf("cmpistri = %d, want 5", idx.AsInt())
	}
	z := call(t, "_mm_cmpistrz", VecValue(a), VecValue(b))
	if z.AsInt() != 0 {
		t.Errorf("cmpistrz on full block = %d", z.AsInt())
	}
}

func TestBroadcasts(t *testing.T) {
	var x Vec
	x.SetF32(0, 3.25)
	out := call(t, "_mm256_broadcastss_ps", VecValue(x))
	for i := 0; i < 8; i++ {
		if out.V.F32(i) != 3.25 {
			t.Fatalf("broadcastss lane %d = %v", i, out.V.F32(i))
		}
	}
	buf := PinF32([]float32{7.5})
	mem := call(t, "_mm256_broadcast_ss", PtrValue(buf, 0))
	for i := 0; i < 8; i++ {
		if mem.V.F32(i) != 7.5 {
			t.Fatalf("broadcast_ss lane %d = %v", i, mem.V.F32(i))
		}
	}
}

func TestMovemaskOnCompare(t *testing.T) {
	a := vecI8(-1, 1, -1, 1)
	bits := call(t, "_mm_movemask_epi8", VecValue(a))
	if bits.AsInt()&0xF != 0b0101 {
		t.Errorf("movemask = %b", bits.AsInt())
	}
}

func TestSVMLAccuracy(t *testing.T) {
	a := vecF32(0, 1, -1, 0.5)
	sin := call(t, "_mm256_sin_ps", VecValue(a))
	if sin.V.F32(0) != 0 || sin.V.F32(1) < 0.84 || sin.V.F32(1) > 0.85 {
		t.Errorf("sin = %v, %v", sin.V.F32(0), sin.V.F32(1))
	}
	exp := call(t, "_mm256_exp_ps", VecValue(a))
	if exp.V.F32(0) != 1 || exp.V.F32(1) < 2.71 || exp.V.F32(1) > 2.72 {
		t.Errorf("exp = %v, %v", exp.V.F32(0), exp.V.F32(1))
	}
	cdf := call(t, "_mm256_cdfnorm_pd", VecValue(vecF64(0)))
	if cdf.V.F64(0) != 0.5 {
		t.Errorf("cdfnorm(0) = %v, want 0.5", cdf.V.F64(0))
	}
}
