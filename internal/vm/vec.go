package vm

import "fmt"

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
