package vm

// Shuffle, permute, unpack, blend and byte-move semantics — the data-
// movement vocabulary the paper's 8×8 MMM transpose (Figure 5) is built
// from.

func init() {
	registerUnpacks()
	registerShuffles()
	registerPermutes()
	registerBlends()
	registerByteShifts()
	registerInsertExtract()
	registerSets()
	registerBroadcasts()
	registerVariableShifts()
	registerMoves()
}

func registerUnpacks() {
	// The ps and pd forms move 4- and 8-byte elements, as the epi32 and
	// epi64 forms do.
	for _, f := range []struct {
		sfx    string
		lo, hi Kernel2
	}{
		{"epi8", unpackloEpi8, unpackhiEpi8}, {"epi16", unpackloEpi16, unpackhiEpi16},
		{"epi32", unpackloPs, unpackhiPs}, {"epi64", unpackloPd, unpackhiPd},
		{"ps", unpackloPs, unpackhiPs}, {"pd", unpackloPd, unpackhiPd},
	} {
		for _, pfx := range []string{"_mm_", "_mm256_"} {
			reg2(pfx+"unpacklo_"+f.sfx, f.lo)
			reg2(pfx+"unpackhi_"+f.sfx, f.hi)
		}
	}
	bindAt("_mm_unpacklo_pi8", 64, Kernel2(unpackloEpi8))
	bindAt("_mm_unpackhi_pi8", 64, Kernel2(unpackhiEpi8))
}

func registerShuffles() {
	// _mm_shuffle_ps / _mm256_shuffle_ps: two lanes from a, two from b,
	// selected by imm8, per 128-bit lane.
	reg2Imm("_mm_shuffle_ps", shufflePs)
	reg2Imm("_mm256_shuffle_ps", shufflePs)

	shufPD := func(bits int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a, b := argVec(args, 0), argVec(args, 1)
			imm := argInt(args, 2)
			out := zero(dst)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 2
				out.SetF64(o+0, a.F64(o+(imm>>(2*lane)&1)))
				out.SetF64(o+1, b.F64(o+(imm>>(2*lane+1)&1)))
			}
			return vecResult(out)
		}
	}
	register("_mm_shuffle_pd", shufPD(128))
	register("_mm256_shuffle_pd", shufPD(256))

	shufEpi32 := func(bits int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a := argVec(args, 0)
			imm := argInt(args, 1)
			out := zero(dst)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 4
				for i := 0; i < 4; i++ {
					out.SetI32(o+i, a.I32(o+(imm>>(2*i)&3)))
				}
			}
			return vecResult(out)
		}
	}
	register("_mm_shuffle_epi32", shufEpi32(128))
	register("_mm256_shuffle_epi32", shufEpi32(256))

	shufHiLo := func(bits int, hi bool) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a := argVec(args, 0)
			imm := argInt(args, 1)
			out := copyTo(dst, a)
			for lane := 0; lane < bits/128; lane++ {
				base := lane * 8
				off := base
				if hi {
					off = base + 4
				}
				var tmp [4]int16
				for i := 0; i < 4; i++ {
					tmp[i] = a.I16(off + (imm >> (2 * i) & 3))
				}
				for i := 0; i < 4; i++ {
					out.SetI16(off+i, tmp[i])
				}
			}
			return vecResult(out)
		}
	}
	register("_mm_shufflehi_epi16", shufHiLo(128, true))
	register("_mm_shufflelo_epi16", shufHiLo(128, false))
	register("_mm256_shufflehi_epi16", shufHiLo(256, true))
	register("_mm256_shufflelo_epi16", shufHiLo(256, false))

	reg2("_mm_shuffle_epi8", shuffleEpi8)
	reg2("_mm256_shuffle_epi8", shuffleEpi8)

	// alignr: concatenate each 128-bit lane pair and shift right by imm
	// bytes.
	alignr := func(bits int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a, b := argVec(args, 0), argVec(args, 1)
			imm := argInt(args, 2)
			out := zero(dst)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 16
				var concat [32]byte
				copy(concat[:16], b.b[o:o+16])
				copy(concat[16:], a.b[o:o+16])
				for i := 0; i < 16; i++ {
					idx := i + imm
					if idx < 32 {
						out.b[o+i] = concat[idx]
					}
				}
			}
			return vecResult(out)
		}
	}
	register("_mm_alignr_epi8", alignr(128))
	register("_mm256_alignr_epi8", alignr(256))
}

func registerPermutes() {
	for _, n := range []string{"_mm256_permute2f128_ps", "_mm256_permute2f128_pd",
		"_mm256_permute2f128_si256", "_mm256_permute2x128_si256"} {
		reg2Imm(n, permute2f128Ps)
	}

	// permute_ps: in-lane permute by imm (like shuffle_epi32 on floats).
	register("_mm256_permute_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		imm := argInt(args, 1)
		out := zero(dst)
		for lane := 0; lane < 2; lane++ {
			o := lane * 4
			for i := 0; i < 4; i++ {
				out.SetF32(o+i, a.F32(o+(imm>>(2*i)&3)))
			}
		}
		return vecResult(out)
	})
	register("_mm256_permute_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		imm := argInt(args, 1)
		out := zero(dst)
		for lane := 0; lane < 2; lane++ {
			o := lane * 2
			out.SetF64(o+0, a.F64(o+(imm>>(2*lane)&1)))
			out.SetF64(o+1, a.F64(o+(imm>>(2*lane+1)&1)))
		}
		return vecResult(out)
	})
	register("_mm256_permutevar_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 1)
		out := zero(dst)
		for lane := 0; lane < 2; lane++ {
			o := lane * 4
			for i := 0; i < 4; i++ {
				out.SetF32(o+i, a.F32(o+int(b.U32(o+i)&3)))
			}
		}
		return vecResult(out)
	})
	register("_mm256_permutevar_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 1)
		out := zero(dst)
		for lane := 0; lane < 2; lane++ {
			o := lane * 2
			for i := 0; i < 2; i++ {
				out.SetF64(o+i, a.F64(o+int(b.U64(o+i)>>1&1)))
			}
		}
		return vecResult(out)
	})
	register("_mm256_permute4x64_epi64", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		imm := argInt(args, 1)
		out := zero(dst)
		for i := 0; i < 4; i++ {
			out.SetI64(i, a.I64(imm>>(2*i)&3))
		}
		return vecResult(out)
	})
	register("_mm256_permute4x64_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		imm := argInt(args, 1)
		out := zero(dst)
		for i := 0; i < 4; i++ {
			out.SetF64(i, a.F64(imm>>(2*i)&3))
		}
		return vecResult(out)
	})
	permVar8x32 := func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, idx := argVec(args, 0), argVec(args, 1)
		out := zero(dst)
		for i := 0; i < 8; i++ {
			out.SetU32(i, a.U32(int(idx.U32(i)&7)))
		}
		return vecResult(out)
	}
	register("_mm256_permutevar8x32_epi32", permVar8x32)
	register("_mm256_permutevar8x32_ps", permVar8x32)
}

func registerBlends() {
	blendImm := func(bits, elemBytes int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a, b := argVec(args, 0), argVec(args, 1)
			imm := argInt(args, 2)
			out := copyTo(dst, a)
			n := bits / (8 * elemBytes)
			for i := 0; i < n; i++ {
				// 16-bit blends repeat the immediate per 128-bit lane.
				bit := i
				if elemBytes == 2 {
					bit = i % 8
				}
				if imm>>(bit)&1 == 1 {
					for k := 0; k < elemBytes; k++ {
						out.b[i*elemBytes+k] = b.b[i*elemBytes+k]
					}
				}
			}
			return vecResult(out)
		}
	}
	register("_mm_blend_ps", blendImm(128, 4))
	register("_mm_blend_pd", blendImm(128, 8))
	register("_mm256_blend_ps", blendImm(256, 4))
	register("_mm256_blend_pd", blendImm(256, 8))
	register("_mm256_blend_epi16", blendImm(256, 2))
	register("_mm256_blend_epi32", blendImm(256, 4))

	blendvByte := func(bits, elemBytes int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a, b, mask := argVec(args, 0), argVec(args, 1), argVec(args, 2)
			out := copyTo(dst, a)
			n := bits / (8 * elemBytes)
			for i := 0; i < n; i++ {
				// Select on the sign bit of the mask element.
				if mask.b[(i+1)*elemBytes-1]&0x80 != 0 {
					for k := 0; k < elemBytes; k++ {
						out.b[i*elemBytes+k] = b.b[i*elemBytes+k]
					}
				}
			}
			return vecResult(out)
		}
	}
	register("_mm_blendv_ps", blendvByte(128, 4))
	register("_mm_blendv_pd", blendvByte(128, 8))
	register("_mm_blendv_epi8", blendvByte(128, 1))
	register("_mm256_blendv_ps", blendvByte(256, 4))
	register("_mm256_blendv_pd", blendvByte(256, 8))
	register("_mm256_blendv_epi8", blendvByte(256, 1))
}

func registerByteShifts() {
	byteShift := func(bits int, left bool) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a := argVec(args, 0)
			imm := argInt(args, 1)
			out := zero(dst)
			if imm > 15 {
				return vecResult(out)
			}
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 16
				for i := 0; i < 16; i++ {
					var src int
					if left {
						src = i - imm
					} else {
						src = i + imm
					}
					if src >= 0 && src < 16 {
						out.b[o+i] = a.b[o+src]
					}
				}
			}
			return vecResult(out)
		}
	}
	register("_mm_slli_si128", byteShift(128, true))
	register("_mm_srli_si128", byteShift(128, false))
	register("_mm256_bslli_epi128", byteShift(256, true))
	register("_mm256_bsrli_epi128", byteShift(256, false))
}

func registerInsertExtract() {
	reg1Imm("_mm256_extractf128_ps", extractf128Ps)
	reg1Imm("_mm256_extractf128_pd", extractf128Ps)
	reg1Imm("_mm256_extractf128_si256", extractf128Ps)
	register("_mm256_insertf128_ps", insert128)
	register("_mm256_insertf128_pd", insert128)
	register("_mm256_insertf128_si256", insert128)
	register("_mm_extract_epi32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return IntValue(int(argVec(args, 0).I32(argInt(args, 1) & 3))), nil
	})
	register("_mm_extract_epi8", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return IntValue(int(argVec(args, 0).U8(argInt(args, 1) & 15))), nil
	})
	register("_mm_insert_epi32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		out := copyTo(dst, argVec(args, 0))
		out.SetI32(argInt(args, 2)&3, int32(args[1].AsInt()))
		return vecResult(out)
	})
	register("_mm_minpos_epu16", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		minv, mini := a.U16(0), 0
		for i := 1; i < 8; i++ {
			if a.U16(i) < minv {
				minv, mini = a.U16(i), i
			}
		}
		out := zero(dst)
		out.SetU16(0, minv)
		out.SetU16(1, uint16(mini))
		return vecResult(out)
	})
}

func insert128(m *Machine, args []Value, dst *Vec) (Value, error) {
	out := copyTo(dst, argVec(args, 0))
	b := argVec(args, 1)
	if argInt(args, 2)&1 == 1 {
		copy(out.b[16:32], b.b[:16])
	} else {
		copy(out.b[:16], b.b[:16])
	}
	return vecResult(out)
}

func registerSets() {
	for _, n := range []string{
		"_mm_setzero_ps", "_mm_setzero_pd", "_mm_setzero_si128", "_mm_setzero_si64",
		"_mm256_setzero_ps", "_mm256_setzero_pd", "_mm256_setzero_si256",
		"_mm512_setzero_ps", "_mm512_setzero_pd", "_mm512_setzero_si512",
	} {
		reg0(n, setzero)
	}
	for _, pfx := range []string{"_mm_", "_mm256_", "_mm512_"} {
		regSet1F(pfx+"set1_ps", set1Ps)
		regSet1F(pfx+"set1_pd", set1Pd)
	}
	for _, pfx := range []string{"_mm_", "_mm256_"} {
		regSet1I(pfx+"set1_epi8", set1Epi8)
		regSet1I(pfx+"set1_epi16", set1Epi16)
		regSet1I(pfx+"set1_epi32", set1Epi32)
		regSet1I(pfx+"set1_epi64x", set1Epi64)
	}
	// The MMX forms fill a 64-bit register.
	for name, k := range map[string]KernelSetI{
		"_mm_set1_pi8": set1Epi8, "_mm_set1_pi16": set1Epi16, "_mm_set1_pi32": set1Epi32,
	} {
		bindAt(name, 64, k)
	}

	// set_ps takes arguments high-lane first (Intel convention).
	register("_mm_set_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		out := zero(dst)
		for i := 0; i < 4; i++ {
			out.SetF32(3-i, float32(args[i].AsFloat()))
		}
		return vecResult(out)
	})
	register("_mm256_set_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		out := zero(dst)
		for i := 0; i < 8; i++ {
			out.SetF32(7-i, float32(args[i].AsFloat()))
		}
		return vecResult(out)
	})
	register("_mm_set_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		out := zero(dst)
		out.SetF64(1, args[0].AsFloat())
		out.SetF64(0, args[1].AsFloat())
		return vecResult(out)
	})
	register("_mm256_set_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		out := zero(dst)
		for i := 0; i < 4; i++ {
			out.SetF64(3-i, args[i].AsFloat())
		}
		return vecResult(out)
	})
	register("_mm_set_ss", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		out := zero(dst)
		out.SetF32(0, float32(args[0].AsFloat()))
		return vecResult(out)
	})
}

func registerBroadcasts() {
	register("_mm256_broadcastss_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		x := argVec(args, 0).F32(0)
		out := zero(dst)
		for i := 0; i < 8; i++ {
			out.SetF32(i, x)
		}
		return vecResult(out)
	})
	reg1("_mm256_broadcastsi128_si256", broadcastsi128Si256)
	bcastInt := func(elemBits int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a := argVec(args, 0)
			out := zero(dst)
			for i := 0; i < 256/elemBits; i++ {
				switch elemBits {
				case 8:
					out.SetI8(i, a.I8(0))
				case 16:
					out.SetI16(i, a.I16(0))
				default:
					out.SetI32(i, a.I32(0))
				}
			}
			return vecResult(out)
		}
	}
	register("_mm256_broadcastb_epi8", bcastInt(8))
	register("_mm256_broadcastw_epi16", bcastInt(16))
	register("_mm256_broadcastd_epi32", bcastInt(32))
}

func registerVariableShifts() {
	register("_mm256_sllv_epi32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return vecResult(mapU32(dst, 256, argVec(args, 0), argVec(args, 1),
			func(x, c uint32) uint32 {
				if c > 31 {
					return 0
				}
				return x << c
			}))
	})
	register("_mm256_srlv_epi32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return vecResult(mapU32(dst, 256, argVec(args, 0), argVec(args, 1),
			func(x, c uint32) uint32 {
				if c > 31 {
					return 0
				}
				return x >> c
			}))
	})
	register("_mm256_srav_epi32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, c := argVec(args, 0), argVec(args, 1)
		out := zero(dst)
		for i := 0; i < 8; i++ {
			sh := c.U32(i)
			if sh > 31 {
				sh = 31
			}
			out.SetI32(i, a.I32(i)>>sh)
		}
		return vecResult(out)
	})
	register("_mm256_sllv_epi64", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return vecResult(mapU64(dst, 256, argVec(args, 0), argVec(args, 1),
			func(x, c uint64) uint64 {
				if c > 63 {
					return 0
				}
				return x << c
			}))
	})
	register("_mm256_srlv_epi64", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return vecResult(mapU64(dst, 256, argVec(args, 0), argVec(args, 1),
			func(x, c uint64) uint64 {
				if c > 63 {
					return 0
				}
				return x >> c
			}))
	})
	register("_mm512_rol_epi32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		imm := uint(argInt(args, 1)) & 31
		a := argVec(args, 0)
		out := zero(dst)
		for i := 0; i < 16; i++ {
			x := a.U32(i)
			out.SetU32(i, x<<imm|x>>(32-imm))
		}
		return vecResult(out)
	})
}

func registerMoves() {
	register("_mm_movehl_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 1)
		out := zero(dst)
		out.SetF32(0, b.F32(2))
		out.SetF32(1, b.F32(3))
		out.SetF32(2, a.F32(2))
		out.SetF32(3, a.F32(3))
		return vecResult(out)
	})
	register("_mm_movelh_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a, b := argVec(args, 0), argVec(args, 1)
		out := zero(dst)
		out.SetF32(0, a.F32(0))
		out.SetF32(1, a.F32(1))
		out.SetF32(2, b.F32(0))
		out.SetF32(3, b.F32(1))
		return vecResult(out)
	})
	register("_mm_movehdup_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		out := zero(dst)
		for i := 0; i < 2; i++ {
			out.SetF32(2*i, a.F32(2*i+1))
			out.SetF32(2*i+1, a.F32(2*i+1))
		}
		return vecResult(out)
	})
	register("_mm_moveldup_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		out := zero(dst)
		for i := 0; i < 2; i++ {
			out.SetF32(2*i, a.F32(2*i))
			out.SetF32(2*i+1, a.F32(2*i))
		}
		return vecResult(out)
	})
	register("_mm_movedup_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		out := zero(dst)
		out.SetF64(0, a.F64(0))
		out.SetF64(1, a.F64(0))
		return vecResult(out)
	})
}
