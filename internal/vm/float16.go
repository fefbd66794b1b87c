package vm

import "math"

// IEEE 754 binary16 conversion, used by the FP16C intrinsics
// (_mm256_cvtph_ps / _mm256_cvtps_ph) that the 16-bit variable-precision
// dot product relies on (Section 4.1).

// F16FromF32 converts a float32 to the nearest binary16 value
// (round-to-nearest-even), returning its bit pattern.
func F16FromF32(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xFF) - 127
	mant := bits & 0x7FFFFF

	switch {
	case exp == 128: // Inf or NaN
		if mant != 0 {
			return sign | 0x7E00 // quiet NaN
		}
		return sign | 0x7C00
	case exp > 15: // overflow → Inf
		return sign | 0x7C00
	case exp >= -14: // normal range
		// Round the 23-bit fraction down to 10 bits.
		r := roundShift(mant, 13)
		e := uint32(exp + 15)
		if r == 0x400 { // mantissa rounding overflowed into the exponent
			r = 0
			e++
		}
		if e >= 31 {
			return sign | 0x7C00
		}
		return sign | uint16(e<<10) | uint16(r)
	case exp >= -25: // subnormal half: round (1.f × 2^(exp+24)) to integer
		m := mant | 0x800000
		r := roundShift(m, uint32(-exp-1))
		if r == 0x400 { // rounded up into the smallest normal
			return sign | 0x0400
		}
		return sign | uint16(r)
	default: // underflow → signed zero
		return sign
	}
}

// roundShift shifts m right by s with round-to-nearest-even.
func roundShift(m uint32, s uint32) uint32 {
	if s == 0 {
		return m
	}
	if s > 31 {
		return 0
	}
	half := uint32(1) << (s - 1)
	rem := m & ((1 << s) - 1)
	q := m >> s
	if rem > half || (rem == half && q&1 == 1) {
		q++
	}
	return q
}
