package vm

import (
	"math"
	"math/bits"

	"repro/internal/ir"
)

// Miscellaneous intrinsics: hardware RNG (backed by the machine's seeded
// xorshift), population counts, CRC32C, timestamp counter, SSE4.1 dot
// products, and the AVX-512 reductions.

func init() {
	// RDRAND / RDSEED: write through the out-pointer, return 1 (success).
	randStep := func(bitsN int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			buf, off, err := argPtr(args, 0)
			if err != nil {
				return Value{}, err
			}
			switch bitsN {
			case 16:
				buf.SetIntAt(off, int64(m.Rand.Next16()))
			case 32:
				buf.SetIntAt(off, int64(m.Rand.Next32()))
			default:
				buf.SetIntAt(off, int64(m.Rand.Next64()))
			}
			return IntValue(1), nil
		}
	}
	register("_rdrand16_step", randStep(16))
	register("_rdrand32_step", randStep(32))
	register("_rdrand64_step", randStep(64))
	register("_rdseed16_step", randStep(16))
	register("_rdseed32_step", randStep(32))
	register("_rdseed64_step", randStep(64))

	register("_mm_popcnt_u32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return IntValue(bits.OnesCount32(uint32(args[0].AsInt()))), nil
	})
	register("_mm_popcnt_u64", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return Value{Kind: ir.KindI64, I: int64(bits.OnesCount64(uint64(args[0].AsInt())))}, nil
	})
	register("_lzcnt_u32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return Value{Kind: ir.KindU32, U: uint64(bits.LeadingZeros32(uint32(args[0].AsInt())))}, nil
	})
	register("_lzcnt_u64", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return Value{Kind: ir.KindU64, U: uint64(bits.LeadingZeros64(uint64(args[0].AsInt())))}, nil
	})
	register("_tzcnt_u32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return Value{Kind: ir.KindU32, U: uint64(bits.TrailingZeros32(uint32(args[0].AsInt())))}, nil
	})
	register("_tzcnt_u64", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return Value{Kind: ir.KindU64, U: uint64(bits.TrailingZeros64(uint64(args[0].AsInt())))}, nil
	})
	register("_blsr_u32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		x := uint32(args[0].AsInt())
		return Value{Kind: ir.KindU32, U: uint64(x & (x - 1))}, nil
	})
	register("_pext_u32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		x, mask := uint32(args[0].AsInt()), uint32(args[1].AsInt())
		var out, k uint32
		for i := 0; i < 32; i++ {
			if mask>>i&1 == 1 {
				out |= (x >> i & 1) << k
				k++
			}
		}
		return Value{Kind: ir.KindU32, U: uint64(out)}, nil
	})
	register("_pdep_u32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		x, mask := uint32(args[0].AsInt()), uint32(args[1].AsInt())
		var out uint32
		k := 0
		for i := 0; i < 32; i++ {
			if mask>>i&1 == 1 {
				out |= (x >> k & 1) << i
				k++
			}
		}
		return Value{Kind: ir.KindU32, U: uint64(out)}, nil
	})

	// CRC32C (Castagnoli, reflected polynomial 0x82F63B78).
	crc := func(crcIn uint32, data uint64, bytes int) uint32 {
		c := crcIn
		for i := 0; i < bytes; i++ {
			c ^= uint32(data >> (8 * i) & 0xFF)
			for k := 0; k < 8; k++ {
				if c&1 == 1 {
					c = c>>1 ^ 0x82F63B78
				} else {
					c >>= 1
				}
			}
		}
		return c
	}
	register("_mm_crc32_u8", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return Value{Kind: ir.KindU32, U: uint64(crc(uint32(args[0].AsInt()), uint64(args[1].AsInt()), 1))}, nil
	})
	register("_mm_crc32_u16", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return Value{Kind: ir.KindU32, U: uint64(crc(uint32(args[0].AsInt()), uint64(args[1].AsInt()), 2))}, nil
	})
	register("_mm_crc32_u32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return Value{Kind: ir.KindU32, U: uint64(crc(uint32(args[0].AsInt()), uint64(args[1].AsInt()), 4))}, nil
	})
	register("_mm_crc32_u64", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return Value{Kind: ir.KindU64, U: uint64(crc(uint32(args[0].AsInt()), uint64(args[1].AsInt()), 8))}, nil
	})

	// Timestamp counter: a monotonically growing virtual cycle count
	// derived from executed-op totals.
	register("_rdtsc", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return Value{Kind: ir.KindU64, U: uint64(m.Counts.Total()) * 2}, nil
	})

	// SSE4.1 dot products.
	register("_mm_dp_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 1)
		imm := argInt(args, 2)
		var sum float32
		for i := 0; i < 4; i++ {
			if imm>>(4+i)&1 == 1 {
				sum += a.F32(i) * b.F32(i)
			}
		}
		out := zero(dst)
		for i := 0; i < 4; i++ {
			if imm>>i&1 == 1 {
				out.SetF32(i, sum)
			}
		}
		return vecResult(out)
	})
	register("_mm_dp_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 1)
		imm := argInt(args, 2)
		var sum float64
		for i := 0; i < 2; i++ {
			if imm>>(4+i)&1 == 1 {
				sum += a.F64(i) * b.F64(i)
			}
		}
		out := zero(dst)
		for i := 0; i < 2; i++ {
			if imm>>i&1 == 1 {
				out.SetF64(i, sum)
			}
		}
		return vecResult(out)
	})

	// AVX-512 reductions and masks.
	bindAt("_mm512_reduce_add_ps", 512, KernelF32(reduceAddPs))
	register("_mm512_reduce_add_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		var sum float64
		for i := 0; i < 8; i++ {
			sum += a.F64(i)
		}
		return F64Value(sum), nil
	})
	register("_mm512_cmpeq_epi32_mask", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 1)
		mask := zero(dst)
		var bitsOut uint16
		for i := 0; i < 16; i++ {
			if a.I32(i) == b.I32(i) {
				bitsOut |= 1 << i
			}
		}
		mask.SetU16(0, bitsOut)
		return vecResult(mask)
	})
	register("_mm512_mask_add_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		src, k, a, b := argVec(args, 0), argVec(args, 1), argVec(args, 2), argVec(args, 3)
		out := copyTo(dst, src)
		mask := k.U16(0)
		for i := 0; i < 16; i++ {
			if mask>>i&1 == 1 {
				out.SetF32(i, a.F32(i)+b.F32(i))
			}
		}
		return vecResult(out)
	})
	register("_mm_cmp_epi16_mask", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 1)
		imm := argInt(args, 2)
		out := zero(dst)
		var mask uint8
		for i := 0; i < 8; i++ {
			x, y := a.I16(i), b.I16(i)
			var t bool
			switch imm & 7 {
			case 0:
				t = x == y
			case 1:
				t = x < y
			case 2:
				t = x <= y
			case 4:
				t = x != y
			case 5:
				t = x >= y
			case 6:
				t = x > y
			}
			if t {
				mask |= 1 << i
			}
		}
		out.SetU8(0, mask)
		return vecResult(out)
	})

	// AES and SHA rounds: simplified mixing functions — the exact FIPS
	// transformations are out of scope, but the ops stay executable and
	// deterministic so pipelines using them can be tested end-to-end.
	mix := func(seed uint64) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a, b := argVec(args, 0), argVec(args, 1)
			out := zero(dst)
			for i := 0; i < 2; i++ {
				x := a.U64(i) ^ b.U64(i)
				x ^= x >> 33
				x *= seed
				x ^= x >> 29
				out.SetU64(i, x)
			}
			return vecResult(out)
		}
	}
	register("_mm_aesdec_si128", mix(0xC2B2AE3D27D4EB4F))
	register("_mm_aesenc_si128", mix(0x9E3779B97F4A7C15))
	register("_mm_sha1msg1_epu32", mix(0xFF51AFD7ED558CCD))
	register("_mm_sha256msg1_epu32", mix(0xC4CEB9FE1A85EC53))
	register("_mm_clmulepi64_si128", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 1)
		imm := argInt(args, 2)
		x := a.U64(imm & 1)
		y := b.U64(imm >> 4 & 1)
		var lo, hi uint64
		for i := 0; i < 64; i++ {
			if y>>i&1 == 1 {
				lo ^= x << i
				if i > 0 {
					hi ^= x >> (64 - i)
				}
			}
		}
		out := zero(dst)
		out.SetU64(0, lo)
		out.SetU64(1, hi)
		return vecResult(out)
	})

	// SSE4.2 string compares: equal-each (imm ignored beyond that) —
	// enough to execute staged string kernels.
	register("_mm_cmpistri", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 1)
		for i := 0; i < 16; i++ {
			if a.U8(i) != b.U8(i) {
				return IntValue(i), nil
			}
		}
		return IntValue(16), nil
	})
	register("_mm_cmpistrz", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		b := argVec(args, 1)
		for i := 0; i < 16; i++ {
			if b.U8(i) == 0 {
				return IntValue(1), nil
			}
		}
		return IntValue(0), nil
	})
	register("_mm_cmpistrm", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 1)
		out := zero(dst)
		for i := 0; i < 16; i++ {
			if a.U8(i) == b.U8(i) {
				out.SetU8(i, 0xFF)
			}
		}
		return vecResult(out)
	})
	register("_mm_cmpestri", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 2)
		la, lb := argInt(args, 1), argInt(args, 3)
		n := la
		if lb < n {
			n = lb
		}
		if n > 16 {
			n = 16
		}
		for i := 0; i < n; i++ {
			if a.U8(i) != b.U8(i) {
				return IntValue(i), nil
			}
		}
		return IntValue(n), nil
	})
	register("_mm_cmpestrm", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 2)
		la, lb := argInt(args, 1), argInt(args, 3)
		n := la
		if lb < n {
			n = lb
		}
		if n > 16 {
			n = 16
		}
		out := zero(dst)
		for i := 0; i < n; i++ {
			if a.U8(i) == b.U8(i) {
				out.SetU8(i, 0xFF)
			}
		}
		return vecResult(out)
	})

	// Approximations used by SVML tests.
	_ = math.Pi
}
