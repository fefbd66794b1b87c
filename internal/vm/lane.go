package vm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the one source of the machine's lane semantics that the
// native backend shares: it is compiled into the vm, and its text
// (LaneSource) is compiled into every generated plugin with only the
// package clause rewritten. It therefore imports the standard library
// only, has no init, and uses nothing another file of this package
// defines (lane_test.go type-checks it alone). A lane bug is fixed
// here, once, for both backends.
//
// Every kernel writes its result into dst, all 64 bytes of it, at the
// register width bits; dst never aliases an operand, and lanes past the
// width are zero. Kernels that read memory take a byte slice and a byte
// offset and fail with checkBytes's error, leaving dst untouched.

// Vec is one SIMD register value. The array always holds 64 bytes; the
// register's logical width (64/128/256/512 bits) is a property of the
// value's type, not of the storage. Lanes are little-endian, matching
// x86.
type Vec struct {
	b [64]byte
}

// --- lane accessors ------------------------------------------------------------

// F32 returns lane i viewed as float32.
func (v *Vec) F32(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(v.b[i*4:]))
}

// SetF32 stores a float32 into lane i.
func (v *Vec) SetF32(i int, x float32) {
	binary.LittleEndian.PutUint32(v.b[i*4:], math.Float32bits(x))
}

// F64 returns lane i viewed as float64.
func (v *Vec) F64(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.b[i*8:]))
}

// SetF64 stores a float64 into lane i.
func (v *Vec) SetF64(i int, x float64) {
	binary.LittleEndian.PutUint64(v.b[i*8:], math.Float64bits(x))
}

// I8 returns lane i viewed as int8.
func (v *Vec) I8(i int) int8 { return int8(v.b[i]) }

// SetI8 stores an int8 into lane i.
func (v *Vec) SetI8(i int, x int8) { v.b[i] = byte(x) }

// U8 returns lane i viewed as uint8.
func (v *Vec) U8(i int) uint8 { return v.b[i] }

// SetU8 stores a uint8 into lane i.
func (v *Vec) SetU8(i int, x uint8) { v.b[i] = x }

// I16 returns lane i viewed as int16.
func (v *Vec) I16(i int) int16 {
	return int16(binary.LittleEndian.Uint16(v.b[i*2:]))
}

// SetI16 stores an int16 into lane i.
func (v *Vec) SetI16(i int, x int16) {
	binary.LittleEndian.PutUint16(v.b[i*2:], uint16(x))
}

// U16 returns lane i viewed as uint16.
func (v *Vec) U16(i int) uint16 { return binary.LittleEndian.Uint16(v.b[i*2:]) }

// SetU16 stores a uint16 into lane i.
func (v *Vec) SetU16(i int, x uint16) {
	binary.LittleEndian.PutUint16(v.b[i*2:], x)
}

// I32 returns lane i viewed as int32.
func (v *Vec) I32(i int) int32 {
	return int32(binary.LittleEndian.Uint32(v.b[i*4:]))
}

// SetI32 stores an int32 into lane i.
func (v *Vec) SetI32(i int, x int32) {
	binary.LittleEndian.PutUint32(v.b[i*4:], uint32(x))
}

// U32 returns lane i viewed as uint32.
func (v *Vec) U32(i int) uint32 { return binary.LittleEndian.Uint32(v.b[i*4:]) }

// SetU32 stores a uint32 into lane i.
func (v *Vec) SetU32(i int, x uint32) {
	binary.LittleEndian.PutUint32(v.b[i*4:], x)
}

// I64 returns lane i viewed as int64.
func (v *Vec) I64(i int) int64 {
	return int64(binary.LittleEndian.Uint64(v.b[i*8:]))
}

// SetI64 stores an int64 into lane i.
func (v *Vec) SetI64(i int, x int64) {
	binary.LittleEndian.PutUint64(v.b[i*8:], uint64(x))
}

// U64 returns lane i viewed as uint64.
func (v *Vec) U64(i int) uint64 { return binary.LittleEndian.Uint64(v.b[i*8:]) }

// SetU64 stores a uint64 into lane i.
func (v *Vec) SetU64(i int, x uint64) {
	binary.LittleEndian.PutUint64(v.b[i*8:], x)
}

// zero clears dst and returns it, for results that set only some lanes.
func zero(dst *Vec) *Vec {
	*dst = Vec{}
	return dst
}

// copyTo copies src into dst and returns dst, for results that start
// from an operand and overwrite some of its lanes.
func copyTo(dst, src *Vec) *Vec {
	*dst = *src
	return dst
}

// words is the number of 64-bit words in a register of width bits, at
// most the storage's 8. A loop over words(bits) indexes the storage
// through word and setWord without bounds checks.
func words(bits int) int { return min(bits/64, 8) }

// word returns 64-bit word i of v: lanes 8i..8i+7 by byte,
// little-endian.
func (v *Vec) word(i int) uint64 { return binary.LittleEndian.Uint64(v.b[8*i:]) }

// setWord stores x into word i of v.
func (v *Vec) setWord(i int, x uint64) { binary.LittleEndian.PutUint64(v.b[8*i:], x) }

// --- buffer bytes --------------------------------------------------------------

// checkBytes bounds-checks the byte range [off, off+n) of a buffer's
// bytes. Native code would fault here (Section 3.5: "it is the
// responsibility of the developer to write valid SIMD code"); the
// machine reports a structured error instead.
func checkBytes(d []byte, off, n int) error {
	if off < 0 || off+n > len(d) {
		return boundsError(d, off, n)
	}
	return nil
}

// boundsError is checkBytes's error, built out of line so that
// checkBytes and the loads and stores that call it inline.
//
//go:noinline
func boundsError(d []byte, off, n int) error {
	return fmt.Errorf("vm: out-of-bounds access [%d,%d) of %d-byte buffer", off, off+n, len(d))
}

// The element accessors read and write element i of a buffer's bytes;
// the integer readers sign- or zero-extend to int64, the writers
// truncate.

func f32At(d []byte, i int) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(d[i*4:])) }
func setF32At(d []byte, i int, x float32) {
	binary.LittleEndian.PutUint32(d[i*4:], math.Float32bits(x))
}
func f64At(d []byte, i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(d[i*8:])) }
func setF64At(d []byte, i int, x float64) {
	binary.LittleEndian.PutUint64(d[i*8:], math.Float64bits(x))
}
func i8At(d []byte, i int) int64       { return int64(int8(d[i])) }
func u8At(d []byte, i int) int64       { return int64(d[i]) }
func i16At(d []byte, i int) int64      { return int64(int16(binary.LittleEndian.Uint16(d[i*2:]))) }
func u16At(d []byte, i int) int64      { return int64(binary.LittleEndian.Uint16(d[i*2:])) }
func i32At(d []byte, i int) int64      { return int64(int32(binary.LittleEndian.Uint32(d[i*4:]))) }
func u32At(d []byte, i int) int64      { return int64(binary.LittleEndian.Uint32(d[i*4:])) }
func i64At(d []byte, i int) int64      { return int64(binary.LittleEndian.Uint64(d[i*8:])) }
func set8At(d []byte, i int, v int64)  { d[i] = byte(v) }
func set16At(d []byte, i int, v int64) { binary.LittleEndian.PutUint16(d[i*2:], uint16(v)) }
func set32At(d []byte, i int, v int64) { binary.LittleEndian.PutUint32(d[i*4:], uint32(v)) }
func set64At(d []byte, i int, v int64) { binary.LittleEndian.PutUint64(d[i*8:], uint64(v)) }

// loadBytes reads bits/8 bytes at byte offset off into dst, zeroing its
// upper bytes.
func loadBytes(dst *Vec, bits int, d []byte, off int) error {
	n := bits / 8
	if err := checkBytes(d, off, n); err != nil {
		return err
	}
	*dst = Vec{}
	copy(dst.b[:], d[off:off+n])
	return nil
}

// storeBytes writes the low bits/8 bytes of a at byte offset off.
func storeBytes(bits int, d []byte, off int, a *Vec) error {
	n := bits / 8
	if err := checkBytes(d, off, n); err != nil {
		return err
	}
	copy(d[off:], a.b[:n])
	return nil
}

// broadcastSs broadcasts the float32 at byte offset off to every f32
// lane (_mm256_broadcast_ss).
func broadcastSs(dst *Vec, bits int, d []byte, off int) error {
	if err := checkBytes(d, off, 4); err != nil {
		return err
	}
	x := math.Float32frombits(binary.LittleEndian.Uint32(d[off:]))
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		dst.SetF32(i, x)
	}
	return nil
}

// --- scalar helpers --------------------------------------------------------------

// The saturating narrowings clamp v to the target's range.

func satI8(v int) int8    { return int8(min(max(v, -128), 127)) }
func satI16(v int) int16  { return int16(min(max(v, -32768), 32767)) }
func satU8(v int) uint8   { return uint8(min(max(v, 0), 255)) }
func satU16(v int) uint16 { return uint16(min(max(v, 0), 65535)) }

// F32FromF16 converts a binary16 bit pattern to float32 exactly (every
// half value is representable in single precision).
func F32FromF16(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1F:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7F800000)
		}
		return math.Float32frombits(sign | 0x7FC00000 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// fma32 is the f32 fused multiply-add, rounded once. The product of
// two widened f32 operands is exact in f64, so the f64 FMA r rounds
// once, and narrowing r to f32 could round a second time. That second
// rounding can only differ from a single one when r sits exactly on an
// f32 rounding boundary (see f32Boundary); elsewhere no boundary lies
// between r and the exact sum. There an inexact r is replaced by its
// round-to-odd value, the f64 neighbour with an odd last bit on the
// exact sum's side, which narrows correctly because f64 carries more
// than f32's 24+2 bits.
func fma32(a, b, c float32) float32 {
	r := math.FMA(float64(a), float64(b), float64(c))
	if f32Boundary(math.Float64bits(r)) {
		r = roundToOdd(r, a, b, c)
	}
	return float32(r)
}

// f32Boundary reports whether the f64 bit pattern bits may lie on an
// f32 rounding boundary. In the f32 normal range (including the
// overflow threshold) a boundary is a midpoint between two f32 values:
// of the 29 bits narrowing drops, the top one is set and the rest are
// zero. Below it, in the f32 denormal range, narrowing drops more bits
// and a boundary has all 29 low bits zero; zero itself is exact. An f32
// value narrows exactly and is not a boundary, so results that land on
// one stay on the one-compare path.
func f32Boundary(bits uint64) bool {
	low := bits & (1<<29 - 1)
	return low == 1<<28 ||
		low == 0 && bits&(0x7ff<<52) < (1023-126)<<52 && bits<<1 != 0
}

// roundToOdd returns r, the f64 rounding of the exact a*b + c, when r
// is exact, and otherwise the f64 neighbour of the exact sum with an
// odd last bit. It is fma32's rare path, kept out of line so fma32
// inlines.
//
//go:noinline
func roundToOdd(r float64, a, b, c float32) float64 {
	// TwoSum: e is exactly (p + c) - r, p = a*b being exact in f64;
	// NaN when r is not finite.
	p := float64(float64(a) * float64(b))
	bv := r - p
	e := (p - (r - bv)) + (float64(c) - bv)
	if e == 0 || e != e {
		return r
	}
	bits := math.Float64bits(r)
	if (e > 0) == (r > 0) {
		bits++
	} else {
		bits--
	}
	return math.Float64frombits(bits)
}

// --- packed float arithmetic ------------------------------------------------------

func addPs(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		dst.SetF32(i, a.F32(i)+b.F32(i))
	}
}

func subPs(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		dst.SetF32(i, a.F32(i)-b.F32(i))
	}
}

func mulPs(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		dst.SetF32(i, a.F32(i)*b.F32(i))
	}
}

func divPs(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		dst.SetF32(i, a.F32(i)/b.F32(i))
	}
}

// minPs and maxPs are Intel's MIN and MAX, a < b ? a : b and
// a > b ? a : b: a NaN in either lane, or a tie (-0 and +0 included),
// gives b's lane.
func minPs(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		x, y := a.F32(i), b.F32(i)
		if x < y {
			y = x
		}
		dst.SetF32(i, y)
	}
}

func maxPs(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		x, y := a.F32(i), b.F32(i)
		if x > y {
			y = x
		}
		dst.SetF32(i, y)
	}
}

func sqrtPs(dst *Vec, bits int, a *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		dst.SetF32(i, float32(math.Sqrt(float64(a.F32(i)))))
	}
}

func addPd(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/64; i++ {
		dst.SetF64(i, a.F64(i)+b.F64(i))
	}
}

func subPd(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/64; i++ {
		dst.SetF64(i, a.F64(i)-b.F64(i))
	}
}

func mulPd(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/64; i++ {
		dst.SetF64(i, a.F64(i)*b.F64(i))
	}
}

func divPd(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/64; i++ {
		dst.SetF64(i, a.F64(i)/b.F64(i))
	}
}

func minPd(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/64; i++ {
		x, y := a.F64(i), b.F64(i)
		if x < y {
			y = x
		}
		dst.SetF64(i, y)
	}
}

func maxPd(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/64; i++ {
		x, y := a.F64(i), b.F64(i)
		if x > y {
			y = x
		}
		dst.SetF64(i, y)
	}
}

func sqrtPd(dst *Vec, bits int, a *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/64; i++ {
		dst.SetF64(i, math.Sqrt(a.F64(i)))
	}
}

// --- fused multiply-add --------------------------------------------------------------
//
// The four variants negate a and/or c by flipping the sign bit (IEEE
// negation, bit-exact on NaNs) before the one fused operation.

const (
	sign32 = uint32(1) << 31
	sign64 = uint64(1) << 63
)

// fmaPs is fma32 on every f32 lane of (a^na)*b + (c^nc). Each lane
// narrows the f64 FMA directly, and the lanes that may sit on an f32
// rounding boundary are redone by fixFma after the loop, which keeps
// the loop free of calls.
func fmaPs(dst *Vec, bits int, a, b, c *Vec, na, nc uint32) {
	*dst = Vec{}
	var fix uint16
	for i := 0; i < bits/32; i++ {
		r := math.FMA(float64(math.Float32frombits(a.U32(i)^na)), float64(b.F32(i)),
			float64(math.Float32frombits(c.U32(i)^nc)))
		if f32Boundary(math.Float64bits(r)) {
			fix |= 1 << i
		}
		dst.SetF32(i, float32(r))
	}
	if fix != 0 {
		fixFma(dst, a, b, c, na, nc, fix)
	}
}

// fixFma redoes the lanes set in fix with fma32.
//
//go:noinline
func fixFma(dst, a, b, c *Vec, na, nc uint32, fix uint16) {
	for i := 0; fix != 0; i, fix = i+1, fix>>1 {
		if fix&1 != 0 {
			dst.SetF32(i, fma32(math.Float32frombits(a.U32(i)^na), b.F32(i),
				math.Float32frombits(c.U32(i)^nc)))
		}
	}
}

func fmaddPs(dst *Vec, bits int, a, b, c *Vec)  { fmaPs(dst, bits, a, b, c, 0, 0) }
func fmsubPs(dst *Vec, bits int, a, b, c *Vec)  { fmaPs(dst, bits, a, b, c, 0, sign32) }
func fnmaddPs(dst *Vec, bits int, a, b, c *Vec) { fmaPs(dst, bits, a, b, c, sign32, 0) }
func fnmsubPs(dst *Vec, bits int, a, b, c *Vec) { fmaPs(dst, bits, a, b, c, sign32, sign32) }

// fmaPd is math.FMA on every f64 lane of (a^na)*b + (c^nc).
func fmaPd(dst *Vec, bits int, a, b, c *Vec, na, nc uint64) {
	*dst = Vec{}
	for i := 0; i < bits/64; i++ {
		dst.SetF64(i, math.FMA(math.Float64frombits(a.U64(i)^na), b.F64(i),
			math.Float64frombits(c.U64(i)^nc)))
	}
}

func fmaddPd(dst *Vec, bits int, a, b, c *Vec)  { fmaPd(dst, bits, a, b, c, 0, 0) }
func fmsubPd(dst *Vec, bits int, a, b, c *Vec)  { fmaPd(dst, bits, a, b, c, 0, sign64) }
func fnmaddPd(dst *Vec, bits int, a, b, c *Vec) { fmaPd(dst, bits, a, b, c, sign64, 0) }
func fnmsubPd(dst *Vec, bits int, a, b, c *Vec) { fmaPd(dst, bits, a, b, c, sign64, sign64) }

// --- bitwise (width- and element-type-agnostic) -----------------------------------
//
// These and the integer kernels below run word by word: each loop
// handles 64 bits of lanes per step, without a branch on lane data.

func andBits(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	n := words(bits)
	for i := 0; i < n; i++ {
		dst.setWord(i, a.word(i)&b.word(i))
	}
}

func orBits(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	n := words(bits)
	for i := 0; i < n; i++ {
		dst.setWord(i, a.word(i)|b.word(i))
	}
}

func xorBits(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	n := words(bits)
	for i := 0; i < n; i++ {
		dst.setWord(i, a.word(i)^b.word(i))
	}
}

// andnotBits complements the first operand, per Intel.
func andnotBits(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	n := words(bits)
	for i := 0; i < n; i++ {
		dst.setWord(i, ^a.word(i)&b.word(i))
	}
}

// --- set -----------------------------------------------------------------------------

func setzero(dst *Vec, bits int) { *dst = Vec{} }

// set1Ps narrows x to float32 once and broadcasts it.
func set1Ps(dst *Vec, bits int, x float64) {
	f := float32(x)
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		dst.SetF32(i, f)
	}
}

func set1Pd(dst *Vec, bits int, x float64) {
	*dst = Vec{}
	for i := 0; i < bits/64; i++ {
		dst.SetF64(i, x)
	}
}

func set1Epi8(dst *Vec, bits int, x int64) {
	*dst = Vec{}
	for i := 0; i < bits/8; i++ {
		dst.SetI8(i, int8(x))
	}
}

func set1Epi16(dst *Vec, bits int, x int64) {
	*dst = Vec{}
	for i := 0; i < bits/16; i++ {
		dst.SetI16(i, int16(x))
	}
}

func set1Epi32(dst *Vec, bits int, x int64) {
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		dst.SetI32(i, int32(x))
	}
}

func set1Epi64(dst *Vec, bits int, x int64) {
	*dst = Vec{}
	for i := 0; i < bits/64; i++ {
		dst.SetI64(i, x)
	}
}

// --- integer lanes ------------------------------------------------------------------

func cmpeqEpi8(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/8; i++ {
		if a.b[i] == b.b[i] {
			dst.b[i] = 0xFF
		}
	}
}

// Byte-lane masks of a word: the low bit and the sign bit of each byte.
const (
	lowBits  = 0x0101010101010101
	signBits = 0x8080808080808080
)

// addBytes adds the byte lanes of x and y modulo 256, with no carry
// from one lane into the next.
func addBytes(x, y uint64) uint64 { return (x&^signBits + y&^signBits) ^ (x^y)&signBits }

// negBytes negates the byte lanes of x where neg holds 1 (^x + 1) and
// keeps the others; neg holds 0 or 1 in every byte.
func negBytes(x, neg uint64) uint64 { return addBytes(x^neg*0xFF, neg) }

// absEpi8 wraps: the absolute value of -128 is -128.
func absEpi8(dst *Vec, bits int, a *Vec) {
	*dst = Vec{}
	n := words(bits)
	for i := 0; i < n; i++ {
		x := a.word(i)
		dst.setWord(i, negBytes(x, x>>7&lowBits))
	}
}

// signEpi8 negates, zeroes or keeps each lane of a as b's lane is
// negative, zero or positive.
func signEpi8(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	n := words(bits)
	for i := 0; i < n; i++ {
		x, y := a.word(i), b.word(i)
		// The sign bit of each byte of nz is set where y's byte is not
		// zero.
		nz := (y&^signBits + ^uint64(signBits)) | y
		dst.setWord(i, negBytes(x, y>>7&lowBits)&(nz>>7&lowBits*0xFF))
	}
}

func addEpi32(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	n := words(bits)
	for i := 0; i < n; i++ {
		x, y := a.word(i), b.word(i)
		dst.setWord(i, uint64(uint32(x)+uint32(y))|(x>>32+y>>32)<<32)
	}
}

// maddEpi16 sums pairs of 16-bit products into 32-bit lanes, wrapping.
func maddEpi16(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	n := words(bits)
	for i := 0; i < n; i++ {
		x, y := a.word(i), b.word(i)
		lo := int32(int16(x))*int32(int16(y)) + int32(int16(x>>16))*int32(int16(y>>16))
		hi := int32(int16(x>>32))*int32(int16(y>>32)) + int32(int16(x>>48))*int32(int16(y>>48))
		dst.setWord(i, uint64(uint32(lo))|uint64(uint32(hi))<<32)
	}
}

// maddubsEpi16 sums pairs of unsigned-a × signed-b byte products into
// saturated 16-bit lanes: the core of the 8-bit quantized dot product.
func maddubsEpi16(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	n := words(bits)
	for i := 0; i < n; i++ {
		x, y := a.word(i), b.word(i)
		dst.setWord(i, maddubs(x, y, 0)|maddubs(x, y, 16)|maddubs(x, y, 32)|maddubs(x, y, 48))
	}
}

// maddubs is the 16-bit lane of maddubsEpi16 at bit j of the words x
// (unsigned bytes) and y (signed bytes), in place.
func maddubs(x, y uint64, j uint) uint64 {
	p := int(uint8(x>>j))*int(int8(y>>j)) + int(uint8(x>>(j+8)))*int(int8(y>>(j+8)))
	return uint64(uint16(satI16(p))) << j
}

// srliEpi16 shifts each 16-bit lane right, zero-filling; a count past
// 15 (or negative) clears the lane.
func srliEpi16(dst *Vec, bits int, a *Vec, imm int) {
	*dst = Vec{}
	sh := uint(imm)
	if sh > 15 {
		return
	}
	n := words(bits)
	keep := uint64(0xFFFF) >> sh * 0x0001000100010001 // the bits no neighbour shifts in
	for i := 0; i < n; i++ {
		dst.setWord(i, a.word(i)>>sh&keep)
	}
}

// --- swizzles ------------------------------------------------------------------------

// shuffleEpi8 is pshufb: a byte shuffle within each 128-bit lane, where
// a control byte with its high bit set zeroes the result byte.
func shuffleEpi8(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	n := min(bits/128, 4)
	for l := 0; l < n; l++ {
		src, ctl, out := lane128(a, l), lane128(b, l), lane128(dst, l)
		for i, c := range ctl {
			out[i] = src[c&0x0F] &^ byte(int8(c)>>7)
		}
	}
}

// shufflePs takes two lanes from a and two from b, selected by imm, in
// each 128-bit lane.
func shufflePs(dst *Vec, bits int, a, b *Vec, imm int) {
	*dst = Vec{}
	for lane := 0; lane < bits/128; lane++ {
		o := lane * 4
		dst.SetF32(o+0, a.F32(o+(imm>>0&3)))
		dst.SetF32(o+1, a.F32(o+(imm>>2&3)))
		dst.SetF32(o+2, b.F32(o+(imm>>4&3)))
		dst.SetF32(o+3, b.F32(o+(imm>>6&3)))
	}
}

// haddPs adds adjacent pairs within each 128-bit lane.
func haddPs(dst *Vec, bits int, a, b *Vec) {
	*dst = Vec{}
	for lane := 0; lane < bits/128; lane++ {
		o := lane * 4
		dst.SetF32(o+0, a.F32(o+0)+a.F32(o+1))
		dst.SetF32(o+1, a.F32(o+2)+a.F32(o+3))
		dst.SetF32(o+2, b.F32(o+0)+b.F32(o+1))
		dst.SetF32(o+3, b.F32(o+2)+b.F32(o+3))
	}
}

// permute2f128Ps selects each 128-bit half of the result from a:b by a
// nibble of imm: bit 1 picks b, bit 0 the high half, bit 3 zeroes.
func permute2f128Ps(dst *Vec, bits int, a, b *Vec, imm int) {
	*dst = Vec{}
	for half := 0; half < 2; half++ {
		ctrl := imm >> (4 * half) & 0xF
		if ctrl&8 != 0 {
			continue
		}
		src := a
		if ctrl&2 != 0 {
			src = b
		}
		*lane128(dst, half) = *lane128(src, ctrl&1)
	}
}

// lane128 is 128-bit lane i of v.
func lane128(v *Vec, i int) *[16]byte { return (*[16]byte)(v.b[16*i:]) }

// extractf128Ps moves the 128-bit half of a that bit 0 of imm selects
// into the low half.
func extractf128Ps(dst *Vec, bits int, a *Vec, imm int) {
	*dst = Vec{}
	*lane128(dst, 0) = *lane128(a, imm&1)
}

// unpack interleaves the elements, eb bytes each, of the low (lo) or
// high half of each 128-bit lane of a and b, a's element first. A
// 64-bit register (the MMX forms) is a lane of its own.
func unpack(dst *Vec, bits, eb int, lo bool, a, b *Vec) {
	*dst = Vec{}
	h := 0 // the source half's word in a 128-bit lane, or its 32 bits in a 64-bit one
	if !lo {
		h = 1
	}
	if bits == 64 {
		sh := 32 * h
		dst.setWord(0, zip(uint32(a.word(0)>>sh), uint32(b.word(0)>>sh), eb))
		return
	}
	n, o := min(bits/128, 4), 8*(h&1) // h&1 bounds o for the compiler
	for l := 0; l < n; l++ {
		x := binary.LittleEndian.Uint64(lane128(a, l)[o:])
		y := binary.LittleEndian.Uint64(lane128(b, l)[o:])
		out := lane128(dst, l)
		if eb == 8 {
			binary.LittleEndian.PutUint64(out[:], x)
			binary.LittleEndian.PutUint64(out[8:], y)
		} else {
			binary.LittleEndian.PutUint64(out[:], zip(uint32(x), uint32(y), eb))
			binary.LittleEndian.PutUint64(out[8:], zip(uint32(x>>32), uint32(y>>32), eb))
		}
	}
}

// zip interleaves the elements, eb bytes each (1, 2 or 4), of x and y,
// x's first.
func zip(x, y uint32, eb int) uint64 {
	return spread(x, eb) | spread(y, eb)<<(8*eb)
}

// spread moves the elements of x, eb bytes each, into every other
// eb-byte slot of a word, lowest first.
func spread(x uint32, eb int) uint64 {
	w := uint64(x)
	if eb < 4 {
		w = (w | w<<16) & 0x0000FFFF0000FFFF
	}
	if eb < 2 {
		w = (w | w<<8) & 0x00FF00FF00FF00FF
	}
	return w
}

func unpackloEpi8(dst *Vec, bits int, a, b *Vec)  { unpack(dst, bits, 1, true, a, b) }
func unpackhiEpi8(dst *Vec, bits int, a, b *Vec)  { unpack(dst, bits, 1, false, a, b) }
func unpackloEpi16(dst *Vec, bits int, a, b *Vec) { unpack(dst, bits, 2, true, a, b) }
func unpackhiEpi16(dst *Vec, bits int, a, b *Vec) { unpack(dst, bits, 2, false, a, b) }
func unpackloPs(dst *Vec, bits int, a, b *Vec)    { unpack(dst, bits, 4, true, a, b) }
func unpackhiPs(dst *Vec, bits int, a, b *Vec)    { unpack(dst, bits, 4, false, a, b) }
func unpackloPd(dst *Vec, bits int, a, b *Vec)    { unpack(dst, bits, 8, true, a, b) }
func unpackhiPd(dst *Vec, bits int, a, b *Vec)    { unpack(dst, bits, 8, false, a, b) }

// broadcastsi128Si256 copies the low 128 bits of a into both halves.
func broadcastsi128Si256(dst *Vec, bits int, a *Vec) {
	*dst = Vec{}
	*lane128(dst, 0) = *lane128(a, 0)
	*lane128(dst, 1) = *lane128(a, 0)
}

// --- conversions and reductions ---------------------------------------------------------

func cvtepi32Ps(dst *Vec, bits int, a *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		dst.SetF32(i, float32(a.I32(i)))
	}
}

// cvtphPs widens the low bits/32 half-precision lanes of a.
func cvtphPs(dst *Vec, bits int, a *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		dst.SetF32(i, F32FromF16(a.U16(i)))
	}
}

func expPs(dst *Vec, bits int, a *Vec) {
	*dst = Vec{}
	for i := 0; i < bits/32; i++ {
		dst.SetF32(i, float32(math.Exp(float64(a.F32(i)))))
	}
}

func cvtssF32(bits int, a *Vec) float32 { return a.F32(0) }

// reduceAddPs sums the f32 lanes in lane order, rounding each step.
func reduceAddPs(bits int, a *Vec) float32 {
	var sum float32
	for i := 0; i < bits/32; i++ {
		sum += a.F32(i)
	}
	return sum
}
