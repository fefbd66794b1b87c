package vm

import (
	"bytes"
	"math"
	"math/big"
	"strings"
	"testing"

	"repro/internal/isa"
)

// intoOps returns the hot set: the packed f32/f64/i32 arithmetic, FMA,
// float-register bitwise and plain load/store intrinsics that the
// figure kernels execute most, and, at every width the vm registers
// them, the intrinsics of the word-wide lane kernels (see laneOps).
// The tests below hold each one's Fn to a lane-by-lane scalar model
// written from Intel's operation text, without the vm's combinators or
// lane kernels. It reads the registry, which the init functions fill,
// so it is a function and not a package variable.
func intoOps() []string {
	return append(hotOps[:len(hotOps):len(hotOps)], laneOps()...)
}

// laneOps lists every registered intrinsic whose lane kernel runs word
// by word: sign_epi8, abs_epi8, maddubs_epi16, madd_epi16, shuffle_epi8,
// srli_epi16, the unpacks and the bitwise ops not already in hotOps.
func laneOps() []string {
	hot := map[string]bool{}
	for _, n := range hotOps {
		hot[n] = true
	}
	var out []string
	for _, n := range ImplementedNames() {
		if in, _ := Lookup(n); in.Lane == nil || hot[n] {
			continue
		}
		if _, op, elem := refShape(n); isRefLane(op, elem) {
			out = append(out, n)
		}
	}
	return out
}

// isRefLane reports whether op and elem name an intrinsic of a
// word-wide lane kernel.
func isRefLane(op, elem string) bool {
	switch op {
	case "and", "or", "xor", "andnot", "unpacklo", "unpackhi":
		return true
	case "sign", "abs", "shuffle":
		return elem == "epi8"
	case "madd", "srli":
		return elem == "epi16"
	case "maddubs":
		return true
	}
	return false
}

var hotOps = []string{
	"_mm_add_ps", "_mm_sub_ps", "_mm_mul_ps", "_mm_div_ps", "_mm_min_ps", "_mm_max_ps",
	"_mm_add_pd", "_mm_sub_pd", "_mm_mul_pd", "_mm_div_pd", "_mm_min_pd", "_mm_max_pd",
	"_mm_fmadd_ps", "_mm_fmadd_pd",
	"_mm_add_epi32", "_mm_sub_epi32", "_mm_mullo_epi32", "_mm_min_epi32", "_mm_max_epi32",
	"_mm_and_ps", "_mm_or_ps", "_mm_xor_ps", "_mm_andnot_ps",
	"_mm_and_pd", "_mm_or_pd", "_mm_xor_pd", "_mm_andnot_pd",
	"_mm_load_ps", "_mm_loadu_ps", "_mm_load_pd", "_mm_loadu_pd",
	"_mm_load_si128", "_mm_loadu_si128", "_mm_lddqu_si128", "_mm_stream_load_si128",
	"_mm_store_ps", "_mm_storeu_ps", "_mm_store_pd", "_mm_storeu_pd",
	"_mm_store_si128", "_mm_storeu_si128", "_mm_stream_si128",

	"_mm256_add_ps", "_mm256_sub_ps", "_mm256_mul_ps", "_mm256_div_ps", "_mm256_min_ps", "_mm256_max_ps",
	"_mm256_add_pd", "_mm256_sub_pd", "_mm256_mul_pd", "_mm256_div_pd", "_mm256_min_pd", "_mm256_max_pd",
	"_mm256_fmadd_ps", "_mm256_fmadd_pd",
	"_mm256_add_epi32", "_mm256_sub_epi32", "_mm256_mullo_epi32", "_mm256_min_epi32", "_mm256_max_epi32",
	"_mm256_and_ps", "_mm256_or_ps", "_mm256_xor_ps", "_mm256_andnot_ps",
	"_mm256_and_pd", "_mm256_or_pd", "_mm256_xor_pd", "_mm256_andnot_pd",
	"_mm256_load_ps", "_mm256_loadu_ps", "_mm256_load_pd", "_mm256_loadu_pd",
	"_mm256_load_si256", "_mm256_loadu_si256",
	"_mm256_store_ps", "_mm256_storeu_ps", "_mm256_stream_ps",
	"_mm256_store_pd", "_mm256_storeu_pd", "_mm256_stream_pd",
	"_mm256_store_si256", "_mm256_storeu_si256", "_mm256_stream_si256",

	"_mm512_add_ps", "_mm512_sub_ps", "_mm512_mul_ps", "_mm512_div_ps", "_mm512_min_ps", "_mm512_max_ps",
	"_mm512_add_pd", "_mm512_sub_pd", "_mm512_mul_pd", "_mm512_div_pd", "_mm512_min_pd", "_mm512_max_pd",
	"_mm512_fmadd_ps", "_mm512_fmadd_pd",
	"_mm512_add_epi32", "_mm512_sub_epi32",
	"_mm512_loadu_ps", "_mm512_loadu_pd", "_mm512_loadu_si512",
	"_mm512_storeu_ps", "_mm512_storeu_pd", "_mm512_storeu_si512",
}

// refShape splits an intrinsic name into register width in bytes, the
// operation and the element suffix: "_mm256_fmadd_ps" → 32, "fmadd",
// "ps"; "_mm_stream_load_si128" → 16, "stream_load", "si128"; the MMX
// forms ("_mm_unpacklo_pi8", "_mm_and_si64") are 8 bytes wide.
func refShape(name string) (width int, op, elem string) {
	rest := strings.TrimPrefix(name, "_mm")
	width = 16
	switch {
	case strings.HasPrefix(rest, "256_"):
		width, rest = 32, rest[4:]
	case strings.HasPrefix(rest, "512_"):
		width, rest = 64, rest[4:]
	default:
		rest = rest[1:]
	}
	i := strings.LastIndexByte(rest, '_')
	op, elem = rest[:i], rest[i+1:]
	if elem == "pi8" || elem == "si64" {
		width = 8
	}
	return width, op, elem
}

func isRefLoad(op string) bool {
	return op == "load" || op == "loadu" || op == "lddqu" || op == "stream_load"
}

func isRefStore(op string) bool {
	return op == "store" || op == "storeu" || op == "stream"
}

// refFMA is the exact fused multiply-add a*b+c rounded once: the
// product and sum are formed in big.Float at a precision wide enough to
// span every f64 exponent, so the only rounding is the final conversion,
// to f32 when single is set and to f64 otherwise. Non-finite operands
// follow IEEE 754.
func refFMA(a, b, c float64, single bool) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
		return math.NaN()
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		if a == 0 || b == 0 {
			return math.NaN()
		}
		p := math.Inf(1)
		if math.Signbit(a) != math.Signbit(b) {
			p = math.Inf(-1)
		}
		if math.IsInf(c, 0) && math.Signbit(c) != math.Signbit(p) {
			return math.NaN()
		}
		return p
	}
	if math.IsInf(c, 0) {
		return c
	}
	const prec = 4096
	x := new(big.Float).SetPrec(prec).SetFloat64(a)
	y := new(big.Float).SetPrec(prec).SetFloat64(b)
	z := new(big.Float).SetPrec(prec).SetFloat64(c)
	sum := new(big.Float).SetPrec(prec).Mul(x, y)
	sum.Add(sum, z)
	if single {
		f, _ := sum.Float32()
		return float64(f)
	}
	f, _ := sum.Float64()
	return f
}

// refMin and refMax are Intel's MIN(a, b) = (a < b ? a : b) and
// MAX(a, b) = (a > b ? a : b): a NaN or a tie gives the second operand.
func refMin(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func refMax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func refF(op string, x, y, z float64, single bool) float64 {
	r := 0.0
	switch op {
	case "add":
		r = x + y
	case "sub":
		r = x - y
	case "mul":
		r = x * y
	case "div":
		r = x / y
	case "min":
		return refMin(x, y)
	case "max":
		return refMax(x, y)
	case "fmadd":
		return refFMA(x, y, z, single)
	}
	if single {
		// f32 add/sub/mul/div formed in f64 and rounded once are
		// correctly rounded: 53 ≥ 2·24+2 bits.
		return float64(float32(r))
	}
	return r
}

func refI32(op string, x, y int32) int32 {
	switch op {
	case "add":
		return x + y
	case "sub":
		return x - y
	case "mullo":
		return int32(uint32(int64(x) * int64(y)))
	case "min":
		if y < x {
			return y
		}
		return x
	default: // max
		if y > x {
			return y
		}
		return x
	}
}

// scalarRef evaluates one hot-set intrinsic on the scalar model. mem is
// the model's copy of the pointer argument's buffer (nil for register
// ops); stores write into it.
func scalarRef(t *testing.T, name string, args []Value, mem []byte) Value {
	t.Helper()
	width, op, elem := refShape(name)
	switch {
	case isRefLoad(op):
		off := args[0].Off
		return VecValue(VecFromBytes(mem[off : off+width]))
	case isRefStore(op):
		off := args[0].Off
		src, err := args[1].V.Bytes(width)
		if err != nil {
			t.Fatal(err)
		}
		copy(mem[off:off+width], src)
		return Value{}
	}
	if isRefLane(op, elem) {
		return VecValue(refLane(op, elem, width, args))
	}
	a, b := args[0].V, args[1].V
	var c Vec
	if op == "fmadd" {
		c = *args[2].V
	}
	var out Vec
	switch elem {
	case "ps":
		switch op {
		case "and", "or", "xor", "andnot":
			out = refBitwise(op, width, *a, *b)
		default:
			for i := 0; i < width/4; i++ {
				r := refF(op, float64(a.F32(i)), float64(b.F32(i)), float64(c.F32(i)), true)
				out.SetF32(i, float32(r))
			}
		}
	case "pd":
		switch op {
		case "and", "or", "xor", "andnot":
			out = refBitwise(op, width, *a, *b)
		default:
			for i := 0; i < width/8; i++ {
				out.SetF64(i, refF(op, a.F64(i), b.F64(i), c.F64(i), false))
			}
		}
	case "epi32":
		for i := 0; i < width/4; i++ {
			out.SetI32(i, refI32(op, a.I32(i), b.I32(i)))
		}
	default:
		t.Fatalf("%s: no scalar model for element %q", name, elem)
	}
	return VecValue(out)
}

// refLane is the scalar model of a word-wide lane kernel's intrinsic,
// lane by lane as Intel's operation text states it; width is in bytes.
func refLane(op, elem string, width int, args []Value) Vec {
	a := *args[0].V
	var out Vec
	switch op {
	case "abs": // dst[i] := ABS(a[i])
		for i := 0; i < width; i++ {
			x := int(a.I8(i))
			if x < 0 {
				x = -x
			}
			out.SetU8(i, uint8(x))
		}
		return out
	case "srli": // IF imm8 > 15: 0 ELSE ZeroExtend16(a[i] >> imm8)
		imm := args[1].AsInt()
		for i := 0; i < width/2; i++ {
			if imm <= 15 {
				out.SetU16(i, a.U16(i)>>imm)
			}
		}
		return out
	}
	b := *args[1].V
	switch op {
	case "and", "or", "xor", "andnot":
		return refBitwise(op, width, a, b)
	case "sign": // b < 0: -a; b == 0: 0; else a
		for i := 0; i < width; i++ {
			x, y := int(a.I8(i)), int(b.I8(i))
			switch {
			case y < 0:
				out.SetU8(i, uint8(-x))
			case y > 0:
				out.SetU8(i, uint8(x))
			}
		}
	case "maddubs": // Saturate16(a[2i+1]*b[2i+1] + a[2i]*b[2i]), a unsigned, b signed
		for i := 0; i < width/2; i++ {
			p := int(a.U8(2*i+1))*int(b.I8(2*i+1)) + int(a.U8(2*i))*int(b.I8(2*i))
			out.SetI16(i, int16(max(-32768, min(32767, p))))
		}
	case "madd": // SignExtend32(a[2i+1]*b[2i+1]) + SignExtend32(a[2i]*b[2i])
		for i := 0; i < width/4; i++ {
			p := int64(a.I16(2*i+1))*int64(b.I16(2*i+1)) + int64(a.I16(2*i))*int64(b.I16(2*i))
			out.SetU32(i, uint32(p))
		}
	case "shuffle": // per 128-bit lane: b[j] bit 7 ? 0 : a[lane + b[j] & 15]
		for j := 0; j < width; j++ {
			if c := b.U8(j); c&0x80 == 0 {
				out.SetU8(j, a.U8(j&^15+int(c&15)))
			}
		}
	case "unpacklo", "unpackhi": // per lane, interleave a's and b's elements of the lane's low (high) half
		size := map[string]int{"epi8": 1, "pi8": 1, "epi16": 2, "epi32": 4, "ps": 4, "epi64": 8, "pd": 8}[elem]
		lane := min(width, 16)
		for l := 0; l < width; l += lane {
			src := l
			if op == "unpackhi" {
				src += lane / 2
			}
			for e := 0; e < lane/2/size; e++ {
				for k := 0; k < size; k++ {
					out.SetU8(l+2*e*size+k, a.U8(src+e*size+k))
					out.SetU8(l+(2*e+1)*size+k, b.U8(src+e*size+k))
				}
			}
		}
	}
	return out
}

func refBitwise(op string, width int, a, b Vec) Vec {
	var out Vec
	for i := 0; i < width; i++ {
		x, y := a.U8(i), b.U8(i)
		var r byte
		switch op {
		case "and":
			r = x & y
		case "or":
			r = x | y
		case "xor":
			r = x ^ y
		case "andnot":
			r = ^x & y
		}
		out.SetU8(i, r)
	}
	return out
}

// sameRefResult compares the vm's result with the model's: kinds and
// every register byte must agree, except that two NaN float lanes match
// whatever their payloads.
func sameRefResult(name string, got, want Value) bool {
	if got.Kind != want.Kind || got.Mem != nil || got.Off != 0 {
		return false
	}
	if got.Equal(want) {
		return true
	}
	width, op, elem := refShape(name)
	if isRefLoad(op) || isRefStore(op) || isRefLane(op, elem) || elem == "epi32" {
		return false
	}
	for i := width; i < 64; i++ {
		if got.V.U8(i) != want.V.U8(i) {
			return false
		}
	}
	size := 4
	if elem == "pd" {
		size = 8
	}
	for i := 0; i < width/size; i++ {
		var g, w uint64
		var gNaN, wNaN bool
		if size == 4 {
			g, w = uint64(got.V.U32(i)), uint64(want.V.U32(i))
			gNaN, wNaN = got.V.F32(i) != got.V.F32(i), want.V.F32(i) != want.V.F32(i)
		} else {
			g, w = got.V.U64(i), want.V.U64(i)
			gNaN, wNaN = math.IsNaN(got.V.F64(i)), math.IsNaN(want.V.F64(i))
		}
		if g != w && !(gNaN && wNaN) {
			return false
		}
	}
	return true
}

// refArgs builds the argument list for a hot-set intrinsic from a
// 64-byte pattern: fused-multiply-adds take three registers (the
// pattern rotated), loads a pointer at element off into a buffer
// filled from the pattern, stores that pointer plus a register, abs
// one register, srli a register and an immediate byte (the pattern's
// first), everything else two registers.
func refArgs(name string, p [64]byte, off int) ([]Value, *Buffer) {
	vec := func(rot int) Value {
		var q [64]byte
		for i := range q {
			q[i] = p[(i+rot)%64]
		}
		return VecValue(VecFromBytes(q[:]))
	}
	_, op, _ := refShape(name)
	switch {
	case isRefStore(op):
		b := NewBuffer(isa.PrimU8, 128)
		return []Value{PtrValue(b, off), vec(1)}, b
	case isRefLoad(op):
		b := NewBuffer(isa.PrimU8, 128)
		for i := range b.Data {
			b.Data[i] = p[(i*5)%64] + byte(i)
		}
		return []Value{PtrValue(b, off)}, b
	case op == "fmadd":
		return []Value{vec(0), vec(1), vec(2)}, nil
	case op == "abs":
		return []Value{vec(0)}, nil
	case op == "srli":
		return []Value{vec(0), IntValue(int(p[0]))}, nil
	default:
		return []Value{vec(0), vec(1)}, nil
	}
}

// checkAgainstRef runs name's Fn and the scalar model on identical
// arguments and fails on any difference in result or memory effect.
func checkAgainstRef(t *testing.T, name string, p [64]byte, off int) {
	t.Helper()
	in, ok := Lookup(name)
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	args, buf := refArgs(name, p, off)
	refArgsCopy, refBuf := refArgs(name, p, off)
	var mem []byte
	if refBuf != nil {
		mem = refBuf.Data
	}
	got, err := in.Fn(NewMachine(isa.SkylakeX), args, new(Vec))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := scalarRef(t, name, refArgsCopy, mem)
	if !sameRefResult(name, got, want) {
		t.Fatalf("%s: result differs from the scalar model:\nFn:    %+v\nmodel: %+v",
			name, got, want)
	}
	if buf != nil && !bytes.Equal(buf.Data, mem) {
		t.Fatalf("%s: memory effects differ from the scalar model:\nFn:    %x\nmodel: %x",
			name, buf.Data, mem)
	}
}

// TestIntoOpsMatchReference checks every hot-set intrinsic against the
// scalar model on deterministic register contents and pointer offsets:
// same result Value, same bytes in memory.
func TestIntoOpsMatchReference(t *testing.T) {
	for _, name := range intoOps() {
		t.Run(name, func(t *testing.T) {
			if in, ok := Lookup(name); !ok || in.Fn == nil {
				t.Fatalf("%s not registered", name)
			}
			for seed := byte(0); seed < 3; seed++ {
				var p [64]byte
				for i := range p {
					p[i] = byte(i)*7 + seed*13 + 1
				}
				checkAgainstRef(t, name, p, int(seed))
			}
			// Random bytes reach the integer edges (saturating sums, the
			// sign byte -128, pshufb's zeroing bit) the ramps above miss.
			rng := NewXorshift(uint64(len(name)))
			for k := 0; k < 32; k++ {
				var p [64]byte
				for i := range p {
					p[i] = byte(rng.Next32())
				}
				checkAgainstRef(t, name, p, k%8)
			}
		})
	}
}

// FuzzIntoOpsAgree cross-checks the hot-set intrinsics against the
// scalar model on fuzzer-chosen register contents, which reach the
// NaN, infinity, denormal and overflow lanes the fixed seeds miss.
func FuzzIntoOpsAgree(f *testing.F) {
	f.Add(uint16(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(7), bytes.Repeat([]byte{0xff}, 64))
	ops := intoOps()
	f.Fuzz(func(t *testing.T, pick uint16, raw []byte) {
		var p [64]byte
		copy(p[:], raw)
		checkAgainstRef(t, ops[int(pick)%len(ops)], p, int(pick)%8)
	})
}

// TestFMA32RoundsOnce holds the f32 fused multiply-add to a single
// rounding of the exact a*b+c. The first case is a lane where rounding
// to f64 and then to f32 was one ulp off; the constructed ones land the
// f64 sum exactly on an f32 midpoint, in the normal and the denormal
// range, while the exact sum lies just off it.
func TestFMA32RoundsOnce(t *testing.T) {
	a := Vec{}
	b := Vec{}
	c := Vec{}
	a.SetU32(0, 0x2c000030)
	b.SetU32(0, 0x612c0000)
	c.SetU32(0, 0x30612c00)
	out, err := NewMachine(isa.SkylakeX).Call("_mm512_fmadd_ps", VecValue(a), VecValue(b), VecValue(c))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.V.U32(0); got != 0x4dac0041 {
		t.Fatalf("_mm512_fmadd_ps lane 0 = %#08x, want 0x4dac0041", got)
	}

	mid := float32(1 + 0x1p-23) // a*1.5 = 1.5 + 2^-23 + 2^-24, an f32 midpoint
	for _, tc := range []struct{ a, b, c float32 }{
		{mid, 1.5, -0x1p-60}, {mid, 1.5, 0x1p-60},
		{-mid, 1.5, 0x1p-60}, {-mid, 1.5, -0x1p-60},
		{mid, 1.5, 0}, {0x1p-149, 0.5, 0}, {0x1p-149, 1.5, -0x1p-149},
		// a*b = 2^-150 - 2^-196 lifts the largest f32 denormal c to
		// just under a denormal-range midpoint.
		{(1 + 0x1p-23) * 0x1p-75, (1 - 0x1p-23) * 0x1p-75, 0x1p-126 - 0x1p-149},
		{-(1 + 0x1p-23) * 0x1p-75, (1 - 0x1p-23) * 0x1p-75, -(0x1p-126 - 0x1p-149)},
	} {
		want := float32(refFMA(float64(tc.a), float64(tc.b), float64(tc.c), true))
		if got := fma32(tc.a, tc.b, tc.c); math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("fma32(%g, %g, %g) = %#08x, want %#08x", tc.a, tc.b, tc.c,
				math.Float32bits(got), math.Float32bits(want))
		}
	}

	rng := NewXorshift(7)
	f := func() float32 {
		// Random sign, mantissa and an exponent in a range where
		// products and sums stay finite and often cancel.
		bits := rng.Next32()&0x807fffff | (100+rng.Next32()%56)<<23
		return math.Float32frombits(bits)
	}
	for i := 0; i < 20000; i++ {
		x, y, z := f(), f(), f()
		want := float32(refFMA(float64(x), float64(y), float64(z), true))
		if got := fma32(x, y, z); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fma32(%#08x, %#08x, %#08x) = %#08x, want %#08x",
				math.Float32bits(x), math.Float32bits(y), math.Float32bits(z),
				math.Float32bits(got), math.Float32bits(want))
		}
	}
}
