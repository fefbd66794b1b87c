package vm

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ir"
)

// widthOf derives the register width in bits from an intrinsic's name
// prefix (every Intel intrinsic encodes it: _mm_ = 128, _mm256_ = 256,
// _mm512_ = 512; MMX helpers use 64).
func widthOf(name string) int {
	switch {
	case strings.HasPrefix(name, "_mm512_"):
		return 512
	case strings.HasPrefix(name, "_mm256_"):
		return 256
	case strings.HasPrefix(name, "_mm_"):
		return 128
	default:
		return 64
	}
}

// --- registration helpers ----------------------------------------------------

func regBinF32(name string, f func(x, y float32) float32) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return vecResult(mapF32(dst, bits, argVec(args, 0), argVec(args, 1), f))
	})
}

func regBinF64(name string, f func(x, y float64) float64) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return vecResult(mapF64(dst, bits, argVec(args, 0), argVec(args, 1), f))
	})
}

func regUnF32(name string, f func(x float32) float32) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return vecResult(map1F32(dst, bits, argVec(args, 0), f))
	})
}

func regUnF64(name string, f func(x float64) float64) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return vecResult(map1F64(dst, bits, argVec(args, 0), f))
	})
}

// scalar (ss/sd) ops: lane 0 computed, upper lanes copied from a.
func regBinSS(name string, f func(x, y float32) float32) {
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		out := copyTo(dst, argVec(args, 0))
		out.SetF32(0, f(argVec(args, 0).F32(0), argVec(args, 1).F32(0)))
		return vecResult(out)
	})
}

func regBinSD(name string, f func(x, y float64) float64) {
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		out := copyTo(dst, argVec(args, 0))
		out.SetF64(0, f(argVec(args, 0).F64(0), argVec(args, 1).F64(0)))
		return vecResult(out)
	})
}

// mask32/mask64 build comparison results (all-ones on true).
func mask32(t bool) float32 {
	if t {
		return math.Float32frombits(0xFFFFFFFF)
	}
	return math.Float32frombits(0)
}

func mask64(t bool) float64 {
	if t {
		return math.Float64frombits(0xFFFFFFFFFFFFFFFF)
	}
	return math.Float64frombits(0)
}

func regCmpF32(name string, f func(x, y float32) bool) {
	regBinF32(name, func(x, y float32) float32 { return mask32(f(x, y)) })
}

func regCmpF64(name string, f func(x, y float64) bool) {
	regBinF64(name, func(x, y float64) float64 { return mask64(f(x, y)) })
}

// fAdd/fSub etc. — the scalar-lane (ss/sd) float ops. Min and max are
// Intel's, as minPs and maxPs: a NaN or a tie gives y.
func fAdd32(x, y float32) float32 { return x + y }
func fSub32(x, y float32) float32 { return x - y }
func fMul32(x, y float32) float32 { return x * y }
func fDiv32(x, y float32) float32 { return x / y }
func fMin32(x, y float32) float32 {
	if x < y {
		return x
	}
	return y
}
func fMax32(x, y float32) float32 {
	if x > y {
		return x
	}
	return y
}
func fAdd64(x, y float64) float64 { return x + y }
func fSub64(x, y float64) float64 { return x - y }
func fMul64(x, y float64) float64 { return x * y }
func fDiv64(x, y float64) float64 { return x / y }
func fMin64(x, y float64) float64 {
	if x < y {
		return x
	}
	return y
}
func fMax64(x, y float64) float64 {
	if x > y {
		return x
	}
	return y
}

func init() {
	// ---- packed float arithmetic (SSE/SSE2/AVX/AVX-512) ----------------
	for _, pfx := range []string{"_mm_", "_mm256_", "_mm512_"} {
		reg2(pfx+"add_ps", addPs)
		reg2(pfx+"sub_ps", subPs)
		reg2(pfx+"mul_ps", mulPs)
		reg2(pfx+"div_ps", divPs)
		reg2(pfx+"min_ps", minPs)
		reg2(pfx+"max_ps", maxPs)
		reg2(pfx+"add_pd", addPd)
		reg2(pfx+"sub_pd", subPd)
		reg2(pfx+"mul_pd", mulPd)
		reg2(pfx+"div_pd", divPd)
		reg2(pfx+"min_pd", minPd)
		reg2(pfx+"max_pd", maxPd)
		reg1(pfx+"sqrt_ps", sqrtPs)
		reg1(pfx+"sqrt_pd", sqrtPd)
	}
	regBinSS("_mm_add_ss", fAdd32)
	regBinSS("_mm_sub_ss", fSub32)
	regBinSS("_mm_mul_ss", fMul32)
	regBinSS("_mm_div_ss", fDiv32)
	regBinSS("_mm_min_ss", fMin32)
	regBinSS("_mm_max_ss", fMax32)
	regBinSD("_mm_add_sd", fAdd64)
	regBinSD("_mm_sub_sd", fSub64)
	regBinSD("_mm_mul_sd", fMul64)
	regBinSD("_mm_div_sd", fDiv64)
	regBinSD("_mm_min_sd", fMin64)
	regBinSD("_mm_max_sd", fMax64)

	// Approximate reciprocal ops (full precision here; the hardware's
	// 12-bit approximation is below the resolution this study needs).
	regUnF32("_mm_rcp_ps", func(x float32) float32 { return 1 / x })
	regUnF32("_mm256_rcp_ps", func(x float32) float32 { return 1 / x })
	regUnF32("_mm_rsqrt_ps", func(x float32) float32 { return float32(1 / math.Sqrt(float64(x))) })
	regUnF32("_mm256_rsqrt_ps", func(x float32) float32 { return float32(1 / math.Sqrt(float64(x))) })

	// ---- logical on float registers -------------------------------------
	for _, pfx := range []string{"_mm_", "_mm256_"} {
		for _, sfx := range []string{"_ps", "_pd"} {
			reg2(pfx+"and"+sfx, andBits)
			reg2(pfx+"or"+sfx, orBits)
			reg2(pfx+"xor"+sfx, xorBits)
			reg2(pfx+"andnot"+sfx, andnotBits)
		}
	}

	// ---- comparisons ------------------------------------------------------
	for _, pfx := range []string{"_mm_"} {
		regCmpF32(pfx+"cmpeq_ps", func(x, y float32) bool { return x == y })
		regCmpF32(pfx+"cmplt_ps", func(x, y float32) bool { return x < y })
		regCmpF32(pfx+"cmple_ps", func(x, y float32) bool { return x <= y })
		regCmpF32(pfx+"cmpgt_ps", func(x, y float32) bool { return x > y })
		regCmpF32(pfx+"cmpge_ps", func(x, y float32) bool { return x >= y })
		regCmpF32(pfx+"cmpneq_ps", func(x, y float32) bool { return x != y })
		regCmpF64(pfx+"cmpeq_pd", func(x, y float64) bool { return x == y })
		regCmpF64(pfx+"cmplt_pd", func(x, y float64) bool { return x < y })
		regCmpF64(pfx+"cmple_pd", func(x, y float64) bool { return x <= y })
		regCmpF64(pfx+"cmpgt_pd", func(x, y float64) bool { return x > y })
		regCmpF64(pfx+"cmpge_pd", func(x, y float64) bool { return x >= y })
		regCmpF64(pfx+"cmpneq_pd", func(x, y float64) bool { return x != y })
	}
	// AVX's predicate-parameter compare: _mm256_cmp_ps/pd(a, b, imm8).
	register("_mm256_cmp_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		pred, err := cmpPredicate(argInt(args, 2))
		if err != nil {
			return Value{}, err
		}
		return vecResult(mapF32(dst, 256, argVec(args, 0), argVec(args, 1),
			func(x, y float32) float32 { return mask32(pred(float64(x), float64(y))) }))
	})
	register("_mm256_cmp_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		pred, err := cmpPredicate(argInt(args, 2))
		if err != nil {
			return Value{}, err
		}
		return vecResult(mapF64(dst, 256, argVec(args, 0), argVec(args, 1),
			func(x, y float64) float64 { return mask64(pred(x, y)) }))
	})

	// ---- horizontal and alternating arithmetic ---------------------------
	registerHaddFamily()

	// ---- FMA family (all 32 of Table 1b's FMA entries) --------------------
	registerFMAFamily()

	// ---- rounding -----------------------------------------------------------
	registerRounding()

	// ---- conversions ---------------------------------------------------------
	registerFloatConversions()

	// ---- SVML (short vector math library) -------------------------------------
	registerSVML()
}

// cmpPredicate decodes the low 3 bits of AVX compare immediates (the
// ordered/unordered and signalling variants collapse onto these for the
// simulator's purposes).
func cmpPredicate(imm int) (func(x, y float64) bool, error) {
	switch imm & 0x7 {
	case 0:
		return func(x, y float64) bool { return x == y }, nil
	case 1:
		return func(x, y float64) bool { return x < y }, nil
	case 2:
		return func(x, y float64) bool { return x <= y }, nil
	case 3:
		return func(x, y float64) bool { return math.IsNaN(x) || math.IsNaN(y) }, nil
	case 4:
		return func(x, y float64) bool { return x != y }, nil
	case 5:
		return func(x, y float64) bool { return !(x < y) }, nil
	case 6:
		return func(x, y float64) bool { return !(x <= y) }, nil
	case 7:
		return func(x, y float64) bool { return !math.IsNaN(x) && !math.IsNaN(y) }, nil
	}
	return nil, fmt.Errorf("vm: bad compare predicate %d", imm)
}

// registerHaddFamily installs hadd/hsub/addsub for ps/pd at 128 and 256
// bits. AVX horizontal ops work within each 128-bit lane independently.
func registerHaddFamily() {
	hsubPS := func(bits int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a, b := argVec(args, 0), argVec(args, 1)
			out := zero(dst)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 4
				out.SetF32(o+0, a.F32(o+0)-a.F32(o+1))
				out.SetF32(o+1, a.F32(o+2)-a.F32(o+3))
				out.SetF32(o+2, b.F32(o+0)-b.F32(o+1))
				out.SetF32(o+3, b.F32(o+2)-b.F32(o+3))
			}
			return vecResult(out)
		}
	}
	haddPD := func(bits int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a, b := argVec(args, 0), argVec(args, 1)
			out := zero(dst)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 2
				out.SetF64(o+0, a.F64(o+0)+a.F64(o+1))
				out.SetF64(o+1, b.F64(o+0)+b.F64(o+1))
			}
			return vecResult(out)
		}
	}
	hsubPD := func(bits int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a, b := argVec(args, 0), argVec(args, 1)
			out := zero(dst)
			for lane := 0; lane < bits/128; lane++ {
				o := lane * 2
				out.SetF64(o+0, a.F64(o+0)-a.F64(o+1))
				out.SetF64(o+1, b.F64(o+0)-b.F64(o+1))
			}
			return vecResult(out)
		}
	}
	reg2("_mm_hadd_ps", haddPs)
	reg2("_mm256_hadd_ps", haddPs)
	register("_mm_hsub_ps", hsubPS(128))
	register("_mm256_hsub_ps", hsubPS(256))
	register("_mm_hadd_pd", haddPD(128))
	register("_mm256_hadd_pd", haddPD(256))
	register("_mm_hsub_pd", hsubPD(128))
	register("_mm256_hsub_pd", hsubPD(256))

	addsubPS := func(bits int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a, b := argVec(args, 0), argVec(args, 1)
			out := zero(dst)
			for i := 0; i < bits/32; i++ {
				if i%2 == 0 {
					out.SetF32(i, a.F32(i)-b.F32(i))
				} else {
					out.SetF32(i, a.F32(i)+b.F32(i))
				}
			}
			return vecResult(out)
		}
	}
	addsubPD := func(bits int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a, b := argVec(args, 0), argVec(args, 1)
			out := zero(dst)
			for i := 0; i < bits/64; i++ {
				if i%2 == 0 {
					out.SetF64(i, a.F64(i)-b.F64(i))
				} else {
					out.SetF64(i, a.F64(i)+b.F64(i))
				}
			}
			return vecResult(out)
		}
	}
	register("_mm_addsub_ps", addsubPS(128))
	register("_mm256_addsub_ps", addsubPS(256))
	register("_mm_addsub_pd", addsubPD(128))
	register("_mm256_addsub_pd", addsubPD(256))
}

// registerFMAFamily installs the 24 packed and 8 scalar FMA intrinsics
// plus the AVX-512 fmadd: the lane kernels for packed lanes, fma32 for
// the f32 scalar lane and math.FMA for the f64 one.
func registerFMAFamily() {
	variants := []struct {
		name   string
		ps, pd func(dst *Vec, bits int, a, b, c *Vec)
		f32    func(a, b, c float32) float32
		f64    func(a, b, c float64) float64
	}{
		{"fmadd", fmaddPs, fmaddPd, func(a, b, c float32) float32 { return fma32(a, b, c) },
			func(a, b, c float64) float64 { return math.FMA(a, b, c) }},
		{"fmsub", fmsubPs, fmsubPd, func(a, b, c float32) float32 { return fma32(a, b, -c) },
			func(a, b, c float64) float64 { return math.FMA(a, b, -c) }},
		{"fnmadd", fnmaddPs, fnmaddPd, func(a, b, c float32) float32 { return fma32(-a, b, c) },
			func(a, b, c float64) float64 { return math.FMA(-a, b, c) }},
		{"fnmsub", fnmsubPs, fnmsubPd, func(a, b, c float32) float32 { return fma32(-a, b, -c) },
			func(a, b, c float64) float64 { return math.FMA(-a, b, -c) }},
	}
	for _, v := range variants {
		v := v
		for _, pfx := range []string{"_mm_", "_mm256_", "_mm512_"} {
			if pfx == "_mm512_" && v.name != "fmadd" {
				continue
			}
			reg3(pfx+v.name+"_ps", v.ps)
			reg3(pfx+v.name+"_pd", v.pd)
		}
		register("_mm_"+v.name+"_ss", func(m *Machine, args []Value, dst *Vec) (Value, error) {
			out := copyTo(dst, argVec(args, 0))
			out.SetF32(0, v.f32(argVec(args, 0).F32(0), argVec(args, 1).F32(0), argVec(args, 2).F32(0)))
			return vecResult(out)
		})
		register("_mm_"+v.name+"_sd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
			out := copyTo(dst, argVec(args, 0))
			out.SetF64(0, v.f64(argVec(args, 0).F64(0), argVec(args, 1).F64(0), argVec(args, 2).F64(0)))
			return vecResult(out)
		})
	}
	// fmaddsub: odd lanes add, even lanes sub; fmsubadd: the reverse.
	for _, pfx := range []string{"_mm_", "_mm256_"} {
		bits := widthOf(pfx + "x")
		for _, alt := range []struct {
			name    string
			evenSub bool
		}{{"fmaddsub", true}, {"fmsubadd", false}} {
			alt := alt
			register(pfx+alt.name+"_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
				a, b, c := argVec(args, 0), argVec(args, 1), argVec(args, 2)
				out := zero(dst)
				for i := 0; i < bits/32; i++ {
					ci := c.F32(i)
					if (i%2 == 0) == alt.evenSub {
						ci = -ci
					}
					out.SetF32(i, fma32(a.F32(i), b.F32(i), ci))
				}
				return vecResult(out)
			})
			register(pfx+alt.name+"_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
				a, b, c := argVec(args, 0), argVec(args, 1), argVec(args, 2)
				out := zero(dst)
				for i := 0; i < bits/64; i++ {
					ci := c.F64(i)
					if (i%2 == 0) == alt.evenSub {
						ci = -ci
					}
					out.SetF64(i, math.FMA(a.F64(i), b.F64(i), ci))
				}
				return vecResult(out)
			})
		}
	}
}

func registerRounding() {
	roundMode := func(mode int) func(float64) float64 {
		switch mode & 0x3 {
		case 0:
			return math.RoundToEven
		case 1:
			return math.Floor
		case 2:
			return math.Ceil
		default:
			return math.Trunc
		}
	}
	for _, pfx := range []string{"_mm_", "_mm256_"} {
		bits := widthOf(pfx + "x")
		register(pfx+"round_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
			f := roundMode(argInt(args, 1))
			return vecResult(map1F32(dst, bits, argVec(args, 0),
				func(x float32) float32 { return float32(f(float64(x))) }))
		})
		register(pfx+"round_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
			f := roundMode(argInt(args, 1))
			return vecResult(map1F64(dst, bits, argVec(args, 0), f))
		})
		regUnF32(pfx+"floor_ps", func(x float32) float32 { return float32(math.Floor(float64(x))) })
		regUnF64(pfx+"floor_pd", math.Floor)
		regUnF32(pfx+"ceil_ps", func(x float32) float32 { return float32(math.Ceil(float64(x))) })
		regUnF64(pfx+"ceil_pd", math.Ceil)
	}
}

func registerFloatConversions() {
	// int32 ↔ float32, packed.
	for _, pfx := range []string{"_mm_", "_mm256_"} {
		bits := widthOf(pfx + "x")
		reg1(pfx+"cvtepi32_ps", cvtepi32Ps)
		register(pfx+"cvtps_epi32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a := argVec(args, 0)
			out := zero(dst)
			for i := 0; i < bits/32; i++ {
				out.SetI32(i, int32(math.RoundToEven(float64(a.F32(i)))))
			}
			return vecResult(out)
		})
		register(pfx+"cvttps_epi32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a := argVec(args, 0)
			out := zero(dst)
			for i := 0; i < bits/32; i++ {
				out.SetI32(i, int32(a.F32(i)))
			}
			return vecResult(out)
		})
	}
	register("_mm_cvtepi32_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		out := zero(dst)
		for i := 0; i < 2; i++ {
			out.SetF64(i, float64(a.I32(i)))
		}
		return vecResult(out)
	})
	// float32 ↔ float64.
	register("_mm_cvtps_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		out := zero(dst)
		for i := 0; i < 2; i++ {
			out.SetF64(i, float64(a.F32(i)))
		}
		return vecResult(out)
	})
	register("_mm_cvtpd_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		out := zero(dst)
		for i := 0; i < 2; i++ {
			out.SetF32(i, float32(a.F64(i)))
		}
		return vecResult(out)
	})
	register("_mm256_cvtps_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		out := zero(dst)
		for i := 0; i < 4; i++ {
			out.SetF64(i, float64(a.F32(i)))
		}
		return vecResult(out)
	})
	register("_mm256_cvtpd_ps", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		out := zero(dst)
		for i := 0; i < 4; i++ {
			out.SetF32(i, float32(a.F64(i)))
		}
		return vecResult(out)
	})
	// Scalar extraction.
	bindAt("_mm_cvtss_f32", 128, KernelF32(cvtssF32))
	register("_mm_cvtsd_f64", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return F64Value(argVec(args, 0).F64(0)), nil
	})
	register("_mm_cvtsi128_si32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return IntValue(int(argVec(args, 0).I32(0))), nil
	})
	register("_mm_cvtsi128_si64", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return Value{Kind: ir.KindI64, I: argVec(args, 0).I64(0)}, nil
	})
	register("_mm_cvtsi32_si128", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		out := zero(dst)
		out.SetI32(0, int32(args[0].AsInt()))
		return vecResult(out)
	})
	register("_mm_cvtsi64_si128", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		out := zero(dst)
		out.SetI64(0, args[0].AsInt())
		return vecResult(out)
	})
	register("_mm_cvtsi64_si32", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return IntValue(int(argVec(args, 0).I32(0))), nil
	})
	register("_mm_cvtsi32_si64", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		out := zero(dst)
		out.SetI32(0, int32(args[0].AsInt()))
		return vecResult(out)
	})

	// FP16C: half-precision packed conversion.
	reg1("_mm_cvtph_ps", cvtphPs)
	reg1("_mm256_cvtph_ps", cvtphPs)
	register("_mm_cvtps_ph", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		out := zero(dst)
		for i := 0; i < 4; i++ {
			out.SetU16(i, F16FromF32(a.F32(i)))
		}
		return vecResult(out)
	})
	register("_mm256_cvtps_ph", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		a := argVec(args, 0)
		out := zero(dst)
		for i := 0; i < 8; i++ {
			out.SetU16(i, F16FromF32(a.F32(i)))
		}
		return vecResult(out)
	})

	// Casts are free reinterpretations.
	for _, name := range []string{
		"_mm_castpd_ps", "_mm_castps_pd", "_mm_castps_si128", "_mm_castsi128_ps",
		"_mm256_castps_pd", "_mm256_castpd_ps", "_mm256_castps_si256",
		"_mm256_castsi256_ps", "_mm256_castps256_ps128", "_mm256_castpd256_pd128",
		"_mm256_castsi256_si128",
	} {
		bindAt(name, widthOf(name), Cast{})
	}
	// Widening casts zero the upper half (the Intel docs say undefined;
	// zeroing is the common hardware behaviour).
	for _, name := range []string{"_mm256_castps128_ps256", "_mm256_castpd128_pd256", "_mm256_castsi128_si256"} {
		register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
			a := argVec(args, 0)
			out := zero(dst)
			copy(out.b[:16], a.b[:16])
			return vecResult(out)
		})
	}
}

func registerSVML() {
	un32 := func(f func(float64) float64) func(x float32) float32 {
		return func(x float32) float32 { return float32(f(float64(x))) }
	}
	cdfnorm := func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
	pow2o3 := func(x float64) float64 { return math.Cbrt(x * x) }
	for _, pfx := range []string{"_mm_", "_mm256_"} {
		regUnF32(pfx+"sin_ps", un32(math.Sin))
		regUnF64(pfx+"sin_pd", math.Sin)
		regUnF32(pfx+"cos_ps", un32(math.Cos))
		regUnF64(pfx+"cos_pd", math.Cos)
		reg1(pfx+"exp_ps", expPs)
		regUnF64(pfx+"exp_pd", math.Exp)
		regUnF32(pfx+"log_ps", un32(math.Log))
		regUnF64(pfx+"log_pd", math.Log)
		regUnF32(pfx+"pow2o3_ps", un32(pow2o3))
		regUnF64(pfx+"pow2o3_pd", pow2o3)
		regUnF32(pfx+"cdfnorm_ps", un32(cdfnorm))
		regUnF64(pfx+"cdfnorm_pd", cdfnorm)
		regUnF32(pfx+"svml_sqrt_ps", un32(math.Sqrt))
		regUnF64(pfx+"svml_sqrt_pd", math.Sqrt)
		regUnF32(pfx+"invsqrt_ps", un32(func(x float64) float64 { return 1 / math.Sqrt(x) }))
		regUnF64(pfx+"invsqrt_pd", func(x float64) float64 { return 1 / math.Sqrt(x) })
	}
	divEpi32 := func(bits int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			return vecResult(mapI32(dst, bits, argVec(args, 0), argVec(args, 1),
				func(x, y int32) int32 {
					if y == 0 {
						return 0
					}
					return x / y
				}))
		}
	}
	remEpi32 := func(bits int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			return vecResult(mapI32(dst, bits, argVec(args, 0), argVec(args, 1),
				func(x, y int32) int32 {
					if y == 0 {
						return 0
					}
					return x % y
				}))
		}
	}
	register("_mm_div_epi32", divEpi32(128))
	register("_mm256_div_epi32", divEpi32(256))
	register("_mm_rem_epi32", remEpi32(128))
	register("_mm256_rem_epi32", remEpi32(256))
}
