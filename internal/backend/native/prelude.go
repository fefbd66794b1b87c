package native

// prelude is the fixed runtime support compiled into every generated
// plugin. It re-implements, against plain Go types, exactly the lane
// semantics of internal/vm — the generated code must stay standalone
// (stdlib-only imports) because a Go plugin may not share non-stdlib
// packages with its host unless every build detail matches. Each helper
// mirrors its vm counterpart operation-for-operation (including
// float32 rounding points and error text) so results and memory are
// byte-identical to the interpreter; the differential suite in
// native_test.go enforces that bit-for-bit over all registry kernels.
const prelude = `// Code generated by repro/internal/backend/native. DO NOT EDIT.
package main

import (
	"encoding/binary"
	"fmt"
	"math"
)

// vec mirrors vm.Vec: one SIMD register, little-endian lanes.
type vec struct{ b [64]byte }

func (v *vec) f32(i int) float32      { return math.Float32frombits(binary.LittleEndian.Uint32(v.b[i*4:])) }
func (v *vec) setf32(i int, x float32) { binary.LittleEndian.PutUint32(v.b[i*4:], math.Float32bits(x)) }
func (v *vec) f64(i int) float64      { return math.Float64frombits(binary.LittleEndian.Uint64(v.b[i*8:])) }
func (v *vec) setf64(i int, x float64) { binary.LittleEndian.PutUint64(v.b[i*8:], math.Float64bits(x)) }
func (v *vec) i8(i int) int8          { return int8(v.b[i]) }
func (v *vec) seti8(i int, x int8)    { v.b[i] = byte(x) }
func (v *vec) u8(i int) uint8         { return v.b[i] }
func (v *vec) setu8(i int, x uint8)   { v.b[i] = x }
func (v *vec) i16(i int) int16        { return int16(binary.LittleEndian.Uint16(v.b[i*2:])) }
func (v *vec) seti16(i int, x int16)  { binary.LittleEndian.PutUint16(v.b[i*2:], uint16(x)) }
func (v *vec) u16(i int) uint16       { return binary.LittleEndian.Uint16(v.b[i*2:]) }
func (v *vec) i32(i int) int32        { return int32(binary.LittleEndian.Uint32(v.b[i*4:])) }
func (v *vec) seti32(i int, x int32)  { binary.LittleEndian.PutUint32(v.b[i*4:], uint32(x)) }

// --- scalar helpers (mirror vm.Value / kernelc semantics) -------------

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// f2i is kernelc's convert() float→int path: NaN maps to 0, everything
// else truncates with Go's runtime conversion.
func f2i(x float64) int64 {
	if math.IsNaN(x) {
		return 0
	}
	return int64(x)
}

// f32Boundary is vm.f32Boundary: whether an f64 bit pattern may lie on
// an f32 rounding boundary (a normal-range midpoint, or a nonzero
// denormal-range value with 29 zero low bits).
func f32Boundary(bits uint64) bool {
	low := bits & (1<<29 - 1)
	return low == 1<<28 ||
		low == 0 && bits&(0x7ff<<52) < (1023-126)<<52 && bits<<1 != 0
}

// roundToOdd is the vm's f32 FMA rare path (vm.roundToOdd): r is the
// f64 FMA of a, b and c; when it is inexact it moves to its
// round-to-odd neighbour on the exact sum's side.
func roundToOdd(r float64, a, b, c float32) float64 {
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

func sati16(v int) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// f16to32 is vm.F32FromF16 verbatim.
func f16to32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case exp == 0x1F:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7F800000)
		}
		return math.Float32frombits(sign | 0x7FC00000 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// --- buffer access (mirror vm.Buffer) ---------------------------------

func bf32(d []byte, i int) float32      { return math.Float32frombits(binary.LittleEndian.Uint32(d[i*4:])) }
func bsetf32(d []byte, i int, x float32) { binary.LittleEndian.PutUint32(d[i*4:], math.Float32bits(x)) }
func bf64(d []byte, i int) float64      { return math.Float64frombits(binary.LittleEndian.Uint64(d[i*8:])) }
func bsetf64(d []byte, i int, x float64) { binary.LittleEndian.PutUint64(d[i*8:], math.Float64bits(x)) }
func bi8(d []byte, i int) int64         { return int64(int8(d[i])) }
func bu8(d []byte, i int) int64         { return int64(d[i]) }
func bi16(d []byte, i int) int64        { return int64(int16(binary.LittleEndian.Uint16(d[i*2:]))) }
func bu16(d []byte, i int) int64        { return int64(binary.LittleEndian.Uint16(d[i*2:])) }
func bi32(d []byte, i int) int64        { return int64(int32(binary.LittleEndian.Uint32(d[i*4:]))) }
func bu32(d []byte, i int) int64        { return int64(binary.LittleEndian.Uint32(d[i*4:])) }
func bi64(d []byte, i int) int64        { return int64(binary.LittleEndian.Uint64(d[i*8:])) }
func bset8(d []byte, i int, v int64)    { d[i] = byte(v) }
func bset16(d []byte, i int, v int64)   { binary.LittleEndian.PutUint16(d[i*2:], uint16(v)) }
func bset32(d []byte, i int, v int64)   { binary.LittleEndian.PutUint32(d[i*4:], uint32(v)) }
func bset64(d []byte, i int, v int64)   { binary.LittleEndian.PutUint64(d[i*8:], uint64(v)) }

// --- vector load/store (mirror vm.Buffer.LoadVec/StoreVec) ------------

func loadv(d []byte, es int, off int64, n int) (vec, error) {
	bo := int(off) * es
	if bo < 0 || bo+n > len(d) {
		return vec{}, fmt.Errorf("vm: out-of-bounds access [%d,%d) of %d-byte buffer", bo, bo+n, len(d))
	}
	var v vec
	copy(v.b[:], d[bo:bo+n])
	return v, nil
}

func storev(d []byte, es int, off int64, v vec, n int) error {
	bo := int(off) * es
	if bo < 0 || bo+n > len(d) {
		return fmt.Errorf("vm: out-of-bounds access [%d,%d) of %d-byte buffer", bo, bo+n, len(d))
	}
	copy(d[bo:bo+n], v.b[:n])
	return nil
}

// bcastss mirrors _mm256_broadcast_ss: a 4-byte checked read, always at
// float32 stride like the vm's Buffer.check(off*4, 4).
func bcastss(d []byte, off int64) (vec, error) {
	bo := int(off) * 4
	if bo < 0 || bo+4 > len(d) {
		return vec{}, fmt.Errorf("vm: out-of-bounds access [%d,%d) of %d-byte buffer", bo, bo+4, len(d))
	}
	x := math.Float32frombits(binary.LittleEndian.Uint32(d[bo:]))
	var out vec
	for i := 0; i < 8; i++ {
		out.setf32(i, x)
	}
	return out, nil
}

// --- intrinsic semantics (mirror internal/vm ops files) ---------------

func addps(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/32; i++ {
		o.setf32(i, a.f32(i)+b.f32(i))
	}
	return o
}

func subps(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/32; i++ {
		o.setf32(i, a.f32(i)-b.f32(i))
	}
	return o
}

func mulps(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/32; i++ {
		o.setf32(i, a.f32(i)*b.f32(i))
	}
	return o
}

func divps(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/32; i++ {
		o.setf32(i, a.f32(i)/b.f32(i))
	}
	return o
}

func minps(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/32; i++ {
		x, y := a.f32(i), b.f32(i)
		if y < x {
			x = y
		}
		o.setf32(i, x)
	}
	return o
}

func maxps(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/32; i++ {
		x, y := a.f32(i), b.f32(i)
		if y > x {
			x = y
		}
		o.setf32(i, x)
	}
	return o
}

func sqrtps(bits int, a vec) vec {
	var o vec
	for i := 0; i < bits/32; i++ {
		o.setf32(i, float32(math.Sqrt(float64(a.f32(i)))))
	}
	return o
}

// fmaddps is vm's f32 FMA rounding once: each lane narrows the f64
// FMA directly, and the lanes where it may sit on an f32 rounding
// boundary are redone by fixFMA after the loop, which keeps the loop
// free of calls.
func fmaddps(bits int, a, b, c vec) vec {
	var o vec
	var fix uint16
	for i := 0; i < bits/32; i++ {
		r := math.FMA(float64(a.f32(i)), float64(b.f32(i)), float64(c.f32(i)))
		if f32Boundary(math.Float64bits(r)) {
			fix |= 1 << i
		}
		o.setf32(i, float32(r))
	}
	if fix != 0 {
		fixFMA(&o, &a, &b, &c, fix)
	}
	return o
}

// fixFMA redoes the lanes set in fix with roundToOdd.
//
//go:noinline
func fixFMA(o, a, b, c *vec, fix uint16) {
	for i := 0; fix != 0; i, fix = i+1, fix>>1 {
		if fix&1 != 0 {
			x, y, z := a.f32(i), b.f32(i), c.f32(i)
			r := roundToOdd(math.FMA(float64(x), float64(y), float64(z)), x, y, z)
			o.setf32(i, float32(r))
		}
	}
}

// negps flips the sign bit of every f32 lane: unary minus, bit-exact
// even on NaNs, which is how the vm derives the FMA variants.
func negps(bits int, a vec) vec {
	var o vec
	for i := 0; i < bits/32; i++ {
		o.setf32(i, -a.f32(i))
	}
	return o
}

func fmsubps(bits int, a, b, c vec) vec  { return fmaddps(bits, a, b, negps(bits, c)) }
func fnmaddps(bits int, a, b, c vec) vec { return fmaddps(bits, negps(bits, a), b, c) }
func fnmsubps(bits int, a, b, c vec) vec { return fmaddps(bits, negps(bits, a), b, negps(bits, c)) }

func addpd(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/64; i++ {
		o.setf64(i, a.f64(i)+b.f64(i))
	}
	return o
}

func subpd(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/64; i++ {
		o.setf64(i, a.f64(i)-b.f64(i))
	}
	return o
}

func mulpd(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/64; i++ {
		o.setf64(i, a.f64(i)*b.f64(i))
	}
	return o
}

func divpd(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/64; i++ {
		o.setf64(i, a.f64(i)/b.f64(i))
	}
	return o
}

func minpd(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/64; i++ {
		x, y := a.f64(i), b.f64(i)
		if y < x {
			x = y
		}
		o.setf64(i, x)
	}
	return o
}

func maxpd(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/64; i++ {
		x, y := a.f64(i), b.f64(i)
		if y > x {
			x = y
		}
		o.setf64(i, x)
	}
	return o
}

func sqrtpd(bits int, a vec) vec {
	var o vec
	for i := 0; i < bits/64; i++ {
		o.setf64(i, math.Sqrt(a.f64(i)))
	}
	return o
}

func fmaddpd(bits int, a, b, c vec) vec {
	var o vec
	for i := 0; i < bits/64; i++ {
		o.setf64(i, math.FMA(a.f64(i), b.f64(i), c.f64(i)))
	}
	return o
}

func fmsubpd(bits int, a, b, c vec) vec {
	var o vec
	for i := 0; i < bits/64; i++ {
		o.setf64(i, math.FMA(a.f64(i), b.f64(i), -c.f64(i)))
	}
	return o
}

func fnmaddpd(bits int, a, b, c vec) vec {
	var o vec
	for i := 0; i < bits/64; i++ {
		o.setf64(i, math.FMA(-a.f64(i), b.f64(i), c.f64(i)))
	}
	return o
}

func fnmsubpd(bits int, a, b, c vec) vec {
	var o vec
	for i := 0; i < bits/64; i++ {
		o.setf64(i, math.FMA(-a.f64(i), b.f64(i), -c.f64(i)))
	}
	return o
}

func set1pd(bits int, x float64) vec {
	var o vec
	for i := 0; i < bits/64; i++ {
		o.setf64(i, x)
	}
	return o
}

func set1ps(bits int, x float64) vec {
	f := float32(x)
	var o vec
	for i := 0; i < bits/32; i++ {
		o.setf32(i, f)
	}
	return o
}

func set1epi8(bits int, x int64) vec {
	var o vec
	for i := 0; i < bits/8; i++ {
		o.seti8(i, int8(x))
	}
	return o
}

func set1epi16(bits int, x int64) vec {
	var o vec
	for i := 0; i < bits/16; i++ {
		o.seti16(i, int16(x))
	}
	return o
}

func bitand(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/8; i++ {
		o.b[i] = a.b[i] & b.b[i]
	}
	return o
}

func bitor(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/8; i++ {
		o.b[i] = a.b[i] | b.b[i]
	}
	return o
}

func bitxor(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/8; i++ {
		o.b[i] = a.b[i] ^ b.b[i]
	}
	return o
}

// bitandnot is ANDN: the first operand is complemented, per Intel.
func bitandnot(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/8; i++ {
		o.b[i] = ^a.b[i] & b.b[i]
	}
	return o
}

func cmpeqepi8(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/8; i++ {
		if a.i8(i) == b.i8(i) {
			o.seti8(i, -1)
		} else {
			o.seti8(i, 0)
		}
	}
	return o
}

func absepi8(bits int, a vec) vec {
	var o vec
	for i := 0; i < bits/8; i++ {
		x := a.i8(i)
		if x < 0 {
			x = -x
		}
		o.seti8(i, x)
	}
	return o
}

func signepi8(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/8; i++ {
		x, y := a.i8(i), b.i8(i)
		switch {
		case y < 0:
			o.seti8(i, -x)
		case y == 0:
			o.seti8(i, 0)
		default:
			o.seti8(i, x)
		}
	}
	return o
}

func addepi32(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/32; i++ {
		o.seti32(i, a.i32(i)+b.i32(i))
	}
	return o
}

func maddepi16(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/32; i++ {
		p0 := int32(a.i16(2*i)) * int32(b.i16(2*i))
		p1 := int32(a.i16(2*i+1)) * int32(b.i16(2*i+1))
		o.seti32(i, p0+p1)
	}
	return o
}

func maddubsepi16(bits int, a, b vec) vec {
	var o vec
	for i := 0; i < bits/16; i++ {
		p0 := int(a.u8(2*i)) * int(b.i8(2*i))
		p1 := int(a.u8(2*i+1)) * int(b.i8(2*i+1))
		o.seti16(i, sati16(p0+p1))
	}
	return o
}

func srliepi16(bits int, a vec, imm int) vec {
	sh := uint(imm)
	var o vec
	for i := 0; i < bits/16; i++ {
		x := int64(a.i16(i))
		var r int64
		if sh <= 15 {
			r = int64(uint16(x) >> sh)
		}
		o.seti16(i, int16(r))
	}
	return o
}

func shufepi8(bits int, a, b vec) vec {
	var o vec
	for lane := 0; lane < bits/128; lane++ {
		off := lane * 16
		for i := 0; i < 16; i++ {
			c := b.u8(off + i)
			if c&0x80 != 0 {
				o.setu8(off+i, 0)
			} else {
				o.setu8(off+i, a.u8(off+int(c&0x0F)))
			}
		}
	}
	return o
}

func shufps(bits int, a, b vec, imm int) vec {
	var o vec
	for lane := 0; lane < bits/128; lane++ {
		off := lane * 4
		o.setf32(off+0, a.f32(off+(imm>>0&3)))
		o.setf32(off+1, a.f32(off+(imm>>2&3)))
		o.setf32(off+2, b.f32(off+(imm>>4&3)))
		o.setf32(off+3, b.f32(off+(imm>>6&3)))
	}
	return o
}

func haddps(bits int, a, b vec) vec {
	var o vec
	for lane := 0; lane < bits/128; lane++ {
		off := lane * 4
		o.setf32(off+0, a.f32(off+0)+a.f32(off+1))
		o.setf32(off+1, a.f32(off+2)+a.f32(off+3))
		o.setf32(off+2, b.f32(off+0)+b.f32(off+1))
		o.setf32(off+3, b.f32(off+2)+b.f32(off+3))
	}
	return o
}

func perm2f128(a, b vec, imm int) vec {
	sel := func(ctrl int) []byte {
		if ctrl&8 != 0 {
			return make([]byte, 16)
		}
		switch ctrl & 3 {
		case 0:
			return a.b[0:16]
		case 1:
			return a.b[16:32]
		case 2:
			return b.b[0:16]
		default:
			return b.b[16:32]
		}
	}
	var o vec
	copy(o.b[0:16], sel(imm&0xF))
	copy(o.b[16:32], sel(imm>>4&0xF))
	return o
}

func extractf128(a vec, imm int) vec {
	var o vec
	if imm&1 == 1 {
		copy(o.b[:16], a.b[16:32])
	} else {
		copy(o.b[:16], a.b[:16])
	}
	return o
}

func unpck(bits, eb int, lo bool, a, b vec) vec {
	var o vec
	perLane := 16 / eb
	half := perLane / 2
	for lane := 0; lane < bits/128; lane++ {
		base := lane * perLane
		src := base
		if !lo {
			src = base + half
		}
		for i := 0; i < half; i++ {
			for k := 0; k < eb; k++ {
				o.b[(base+2*i)*eb+k] = a.b[(src+i)*eb+k]
				o.b[(base+2*i+1)*eb+k] = b.b[(src+i)*eb+k]
			}
		}
	}
	return o
}

func bsi128(a vec) vec {
	var o vec
	copy(o.b[:16], a.b[:16])
	copy(o.b[16:32], a.b[:16])
	return o
}

func cvtepi32ps(bits int, a vec) vec {
	var o vec
	for i := 0; i < bits/32; i++ {
		o.setf32(i, float32(a.i32(i)))
	}
	return o
}

func cvtphps(a vec) vec {
	var o vec
	for i := 0; i < 8; i++ {
		o.setf32(i, f16to32(a.u16(i)))
	}
	return o
}

func expps(bits int, a vec) vec {
	var o vec
	for i := 0; i < bits/32; i++ {
		o.setf32(i, float32(math.Exp(float64(a.f32(i)))))
	}
	return o
}

func reduceaddps(a vec) float64 {
	var sum float32
	for i := 0; i < 16; i++ {
		sum += a.f32(i)
	}
	return float64(sum)
}
`
