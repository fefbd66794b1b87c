package vm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Vec is one SIMD register value. The array always holds 64 bytes; the
// register's logical width (64/128/256/512 bits) is a property of the
// value's type, not of the storage. Lanes are little-endian, matching
// x86.
type Vec struct {
	b [64]byte
}

// RangeError reports a byte count that does not fit the 64-byte
// register storage. It is a typed error so sweeps can distinguish a
// malformed width from a genuine interpreter fault.
type RangeError struct {
	N   int // requested byte count
	Cap int // register capacity in bytes
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("vm: %d bytes out of range for a %d-byte register", e.N, e.Cap)
}

// Bytes returns a copy of the first n bytes of the register, or a
// *RangeError when n is negative or exceeds the 64-byte storage.
func (v Vec) Bytes(n int) ([]byte, error) {
	if n < 0 || n > len(v.b) {
		return nil, &RangeError{N: n, Cap: len(v.b)}
	}
	out := make([]byte, n)
	copy(out, v.b[:n])
	return out, nil
}

// VecFromBytes fills the register from raw bytes (upper bytes zeroed).
// Slices longer than the 64-byte storage are silently truncated; use
// VecFromBytesErr to surface that as an error.
func VecFromBytes(p []byte) Vec {
	var v Vec
	copy(v.b[:], p)
	return v
}

// VecFromBytesErr is VecFromBytes with a *RangeError instead of silent
// truncation when the slice exceeds the register storage.
func VecFromBytesErr(p []byte) (Vec, error) {
	var v Vec
	if len(p) > len(v.b) {
		return Vec{}, &RangeError{N: len(p), Cap: len(v.b)}
	}
	copy(v.b[:], p)
	return v, nil
}

// --- 32-bit float lanes ----------------------------------------------------

// F32 returns lane i viewed as float32.
func (v *Vec) F32(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(v.b[i*4:]))
}

// SetF32 stores a float32 into lane i.
func (v *Vec) SetF32(i int, x float32) {
	binary.LittleEndian.PutUint32(v.b[i*4:], math.Float32bits(x))
}

// --- 64-bit float lanes ----------------------------------------------------

// F64 returns lane i viewed as float64.
func (v *Vec) F64(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.b[i*8:]))
}

// SetF64 stores a float64 into lane i.
func (v *Vec) SetF64(i int, x float64) {
	binary.LittleEndian.PutUint64(v.b[i*8:], math.Float64bits(x))
}

// --- integer lanes -----------------------------------------------------------

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

// String formats the low 256 bits as hex, low byte first.
func (v Vec) String() string {
	return fmt.Sprintf("%x", v.b[:32])
}

// --- lanewise combinators ----------------------------------------------------
//
// Each combinator applies f lane by lane over the register's logical
// width, writes the result into dst (which aliases no operand) and
// returns it; lanes past the width are zeroed.

func mapF32(dst *Vec, bits int, a, b *Vec, f func(x, y float32) float32) *Vec {
	out := zero(dst)
	for i := 0; i < bits/32; i++ {
		out.SetF32(i, f(a.F32(i), b.F32(i)))
	}
	return out
}

func map1F32(dst *Vec, bits int, a *Vec, f func(x float32) float32) *Vec {
	out := zero(dst)
	for i := 0; i < bits/32; i++ {
		out.SetF32(i, f(a.F32(i)))
	}
	return out
}

func mapF64(dst *Vec, bits int, a, b *Vec, f func(x, y float64) float64) *Vec {
	out := zero(dst)
	for i := 0; i < bits/64; i++ {
		out.SetF64(i, f(a.F64(i), b.F64(i)))
	}
	return out
}

func map1F64(dst *Vec, bits int, a *Vec, f func(x float64) float64) *Vec {
	out := zero(dst)
	for i := 0; i < bits/64; i++ {
		out.SetF64(i, f(a.F64(i)))
	}
	return out
}

func mapI8(dst *Vec, bits int, a, b *Vec, f func(x, y int8) int8) *Vec {
	out := zero(dst)
	for i := 0; i < bits/8; i++ {
		out.SetI8(i, f(a.I8(i), b.I8(i)))
	}
	return out
}

func mapU8(dst *Vec, bits int, a, b *Vec, f func(x, y uint8) uint8) *Vec {
	out := zero(dst)
	for i := 0; i < bits/8; i++ {
		out.SetU8(i, f(a.U8(i), b.U8(i)))
	}
	return out
}

func mapI16(dst *Vec, bits int, a, b *Vec, f func(x, y int16) int16) *Vec {
	out := zero(dst)
	for i := 0; i < bits/16; i++ {
		out.SetI16(i, f(a.I16(i), b.I16(i)))
	}
	return out
}

func mapU16(dst *Vec, bits int, a, b *Vec, f func(x, y uint16) uint16) *Vec {
	out := zero(dst)
	for i := 0; i < bits/16; i++ {
		out.SetU16(i, f(a.U16(i), b.U16(i)))
	}
	return out
}

func mapI32(dst *Vec, bits int, a, b *Vec, f func(x, y int32) int32) *Vec {
	out := zero(dst)
	for i := 0; i < bits/32; i++ {
		out.SetI32(i, f(a.I32(i), b.I32(i)))
	}
	return out
}

func mapU32(dst *Vec, bits int, a, b *Vec, f func(x, y uint32) uint32) *Vec {
	out := zero(dst)
	for i := 0; i < bits/32; i++ {
		out.SetU32(i, f(a.U32(i), b.U32(i)))
	}
	return out
}

func mapI64(dst *Vec, bits int, a, b *Vec, f func(x, y int64) int64) *Vec {
	out := zero(dst)
	for i := 0; i < bits/64; i++ {
		out.SetI64(i, f(a.I64(i), b.I64(i)))
	}
	return out
}

func mapU64(dst *Vec, bits int, a, b *Vec, f func(x, y uint64) uint64) *Vec {
	out := zero(dst)
	for i := 0; i < bits/64; i++ {
		out.SetU64(i, f(a.U64(i), b.U64(i)))
	}
	return out
}

// bitwise applies f to the register byte-by-byte (logical ops are
// width- and element-type-agnostic).
func bitwise(dst *Vec, bits int, a, b *Vec, f func(x, y byte) byte) *Vec {
	out := zero(dst)
	for i := 0; i < bits/8; i++ {
		out.b[i] = f(a.b[i], b.b[i])
	}
	return out
}

// saturation helpers.

func satI8(v int) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}

func satI16(v int) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

func satU8(v int) uint8 {
	if v > 255 {
		return 255
	}
	if v < 0 {
		return 0
	}
	return uint8(v)
}

func satU16(v int) uint16 {
	if v > 65535 {
		return 65535
	}
	if v < 0 {
		return 0
	}
	return uint16(v)
}
