package native

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// loadWidth / storeWidth give the register width in bytes for the
// memory intrinsics the registered kernels use. Anything absent from
// these maps and the switch below is simply not native-lowerable and
// stays on the vm interpreter — the emitter set grows with the kernel
// suite, not with the vm's full intrinsic catalogue.
var loadWidth = map[string]int{
	"_mm_loadu_ps":       16,
	"_mm_loadu_pd":       16,
	"_mm_loadu_si128":    16,
	"_mm256_loadu_ps":    32,
	"_mm256_loadu_pd":    32,
	"_mm256_loadu_si256": 32,
	"_mm512_loadu_ps":    64,
	// The vm treats aligned loads identically to unaligned ones (the
	// simulated machine has no alignment faults), so they share loadv.
	"_mm_load_ps":    16,
	"_mm_load_pd":    16,
	"_mm256_load_ps": 32,
	"_mm256_load_pd": 32,
}

var storeWidth = map[string]int{
	"_mm_storeu_ps":    16,
	"_mm_storeu_pd":    16,
	"_mm256_storeu_ps": 32,
	"_mm256_storeu_pd": 32,
	"_mm_store_ps":     16,
	"_mm_store_pd":     16,
	"_mm256_store_ps":  32,
	"_mm256_store_pd":  32,
}

// laneHelper maps a packed-float lane op (stem + precision suffix,
// prefix stripped) to its prelude helper. Both 128- and 256-bit forms
// share one helper parameterized on the register width; the bitwise
// helpers are precision-blind (they run over raw register bytes, as
// the vm's regBitwise does).
var laneHelper = map[string]struct {
	fn    string
	arity int
}{
	"add_ps": {"addps", 2}, "sub_ps": {"subps", 2},
	"mul_ps": {"mulps", 2}, "div_ps": {"divps", 2},
	"min_ps": {"minps", 2}, "max_ps": {"maxps", 2},
	"sqrt_ps": {"sqrtps", 1},
	"add_pd":  {"addpd", 2}, "sub_pd": {"subpd", 2},
	"mul_pd": {"mulpd", 2}, "div_pd": {"divpd", 2},
	"min_pd": {"minpd", 2}, "max_pd": {"maxpd", 2},
	"sqrt_pd":  {"sqrtpd", 1},
	"fmadd_ps": {"fmaddps", 3}, "fmsub_ps": {"fmsubps", 3},
	"fnmadd_ps": {"fnmaddps", 3}, "fnmsub_ps": {"fnmsubps", 3},
	"fmadd_pd": {"fmaddpd", 3}, "fmsub_pd": {"fmsubpd", 3},
	"fnmadd_pd": {"fnmaddpd", 3}, "fnmsub_pd": {"fnmsubpd", 3},
	"and_ps": {"bitand", 2}, "or_ps": {"bitor", 2},
	"xor_ps": {"bitxor", 2}, "andnot_ps": {"bitandnot", 2},
	"and_pd": {"bitand", 2}, "or_pd": {"bitor", 2},
	"xor_pd": {"bitxor", 2}, "andnot_pd": {"bitandnot", 2},
}

// laneOp resolves an intrinsic name against laneHelper, returning the
// register width its prefix implies.
func laneOp(name string) (fn string, arity, bits int, ok bool) {
	var rest string
	switch {
	case strings.HasPrefix(name, "_mm256_"):
		bits, rest = 256, name[len("_mm256_"):]
	case strings.HasPrefix(name, "_mm_"):
		bits, rest = 128, name[len("_mm_"):]
	default:
		return "", 0, 0, false
	}
	h, ok := laneHelper[rest]
	return h.fn, h.arity, bits, ok
}

func (g *gen) intrinsic(n *ir.Node) error {
	d := n.Def
	name := d.Op
	id := n.Sym.ID
	x := vname(n.Sym)
	// arg returns operand i, or nil past the end of a malformed node's
	// operands: every reader below refuses nil as not lowerable.
	arg := func(i int) ir.Exp {
		if i < len(d.Args) {
			return d.Args[i]
		}
		return nil
	}
	vecArg := func(i int) (string, error) {
		s, ok := arg(i).(ir.Sym)
		if !ok || s.Typ.Kind != ir.KindVec {
			return "", fmt.Errorf("%s: argument %d of %d is not a vector register", name, i, len(d.Args))
		}
		return vname(s), nil
	}
	immArg := func(i int) (string, error) {
		e, err := g.asInt(arg(i))
		if err != nil {
			return "", fmt.Errorf("%s: argument %d of %d: %w", name, i, len(d.Args), err)
		}
		return fmt.Sprintf("int(%s)", e), nil
	}
	// wrapErr emits the interpreter's intrinsic error wrapping: the vm's
	// runtime error prefixed with the intrinsic name (kernelc then adds
	// the "kernelc: <kernel>:" outer layer on the host side).
	wrapErr := func() {
		g.p("if e%d != nil {", id)
		g.ind++
		g.p("err = fmt.Errorf(%q, e%d)", name+": %w", id)
		g.p("return")
		g.ind--
		g.p("}")
	}
	emit := func(expr string) {
		g.p("%s := %s", x, expr)
		g.p("_ = %s", x)
	}

	if bytes, ok := loadWidth[name]; ok {
		ps, err := ptrArg(arg(0))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		es := ps.Typ.Elem.Bits() / 8
		g.p("%s, e%d := loadv(%s, %d, %s, %d)", x, id, pd(ps), es, po(ps), bytes)
		wrapErr()
		g.p("_ = %s", x)
		return nil
	}
	if bytes, ok := storeWidth[name]; ok {
		ps, err := ptrArg(arg(0))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		es := ps.Typ.Elem.Bits() / 8
		v, err := vecArg(1)
		if err != nil {
			return err
		}
		g.p("e%d := storev(%s, %d, %s, %s, %d)", id, pd(ps), es, po(ps), v, bytes)
		wrapErr()
		return nil
	}

	// Single-vector-arg helpers.
	un := func(fn string, bits int) error {
		a, err := vecArg(0)
		if err != nil {
			return err
		}
		if bits == 0 {
			emit(fmt.Sprintf("%s(%s)", fn, a))
		} else {
			emit(fmt.Sprintf("%s(%d, %s)", fn, bits, a))
		}
		return nil
	}
	bin := func(fn string, bits int) error {
		a, err := vecArg(0)
		if err != nil {
			return err
		}
		b, err := vecArg(1)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("%s(%d, %s, %s)", fn, bits, a, b))
		return nil
	}
	binImm := func(fn string, bits int) error {
		a, err := vecArg(0)
		if err != nil {
			return err
		}
		b, err := vecArg(1)
		if err != nil {
			return err
		}
		imm, err := immArg(2)
		if err != nil {
			return err
		}
		if bits == 0 {
			emit(fmt.Sprintf("%s(%s, %s, %s)", fn, a, b, imm))
		} else {
			emit(fmt.Sprintf("%s(%d, %s, %s, %s)", fn, bits, a, b, imm))
		}
		return nil
	}

	// Packed-float lane arithmetic, shared across widths and precisions.
	if fn, arity, bits, ok := laneOp(name); ok {
		switch arity {
		case 1:
			return un(fn, bits)
		case 2:
			return bin(fn, bits)
		default:
			a, err := vecArg(0)
			if err != nil {
				return err
			}
			b, err := vecArg(1)
			if err != nil {
				return err
			}
			c, err := vecArg(2)
			if err != nil {
				return err
			}
			emit(fmt.Sprintf("%s(%d, %s, %s, %s)", fn, bits, a, b, c))
			return nil
		}
	}

	switch name {
	case "_mm256_broadcast_ss":
		ps, err := ptrArg(arg(0))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		g.p("%s, e%d := bcastss(%s, %s)", x, id, pd(ps), po(ps))
		wrapErr()
		g.p("_ = %s", x)
		return nil

	case "_mm512_fmadd_ps":
		a, err := vecArg(0)
		if err != nil {
			return err
		}
		b, err := vecArg(1)
		if err != nil {
			return err
		}
		c, err := vecArg(2)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("fmaddps(512, %s, %s, %s)", a, b, c))
		return nil

	case "_mm_set1_ps", "_mm256_set1_ps", "_mm512_set1_ps":
		bits := map[string]int{"_mm_set1_ps": 128, "_mm256_set1_ps": 256, "_mm512_set1_ps": 512}[name]
		f, err := g.asFloat(arg(0))
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("set1ps(%d, %s)", bits, f))
		return nil
	case "_mm_set1_pd", "_mm256_set1_pd":
		bits := map[string]int{"_mm_set1_pd": 128, "_mm256_set1_pd": 256}[name]
		f, err := g.asFloat(arg(0))
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("set1pd(%d, %s)", bits, f))
		return nil
	case "_mm256_set1_epi8":
		i, err := g.asInt(arg(0))
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("set1epi8(256, %s)", i))
		return nil
	case "_mm256_set1_epi16":
		i, err := g.asInt(arg(0))
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("set1epi16(256, %s)", i))
		return nil

	case "_mm256_setzero_ps", "_mm256_setzero_si256", "_mm512_setzero_ps":
		emit("vec{}")
		return nil

	case "_mm256_and_si256":
		return bin("bitand", 256)
	case "_mm256_or_si256":
		return bin("bitor", 256)
	case "_mm256_cmpeq_epi8":
		return bin("cmpeqepi8", 256)
	case "_mm256_abs_epi8":
		return un("absepi8", 256)
	case "_mm256_sign_epi8":
		return bin("signepi8", 256)
	case "_mm256_add_epi32":
		return bin("addepi32", 256)
	case "_mm256_madd_epi16":
		return bin("maddepi16", 256)
	case "_mm256_maddubs_epi16":
		return bin("maddubsepi16", 256)

	case "_mm256_srli_epi16":
		a, err := vecArg(0)
		if err != nil {
			return err
		}
		imm, err := immArg(1)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("srliepi16(256, %s, %s)", a, imm))
		return nil

	case "_mm256_shuffle_epi8":
		return bin("shufepi8", 256)
	case "_mm256_shuffle_ps":
		return binImm("shufps", 256)
	case "_mm256_hadd_ps":
		return bin("haddps", 256)
	case "_mm256_permute2f128_ps":
		return binImm("perm2f128", 0)

	case "_mm256_extractf128_ps":
		a, err := vecArg(0)
		if err != nil {
			return err
		}
		imm, err := immArg(1)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("extractf128(%s, %s)", a, imm))
		return nil

	case "_mm256_unpacklo_ps":
		a, err := vecArg(0)
		if err != nil {
			return err
		}
		b, err := vecArg(1)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("unpck(256, 4, true, %s, %s)", a, b))
		return nil
	case "_mm256_unpackhi_ps":
		a, err := vecArg(0)
		if err != nil {
			return err
		}
		b, err := vecArg(1)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("unpck(256, 4, false, %s, %s)", a, b))
		return nil

	case "_mm256_broadcastsi128_si256":
		return un("bsi128", 0)
	case "_mm256_castps256_ps128":
		// Reinterpreting cast: the vm passes the full register through.
		a, err := vecArg(0)
		if err != nil {
			return err
		}
		emit(a)
		return nil
	case "_mm256_cvtepi32_ps":
		return un("cvtepi32ps", 256)
	case "_mm256_cvtph_ps":
		return un("cvtphps", 0)
	case "_mm256_exp_ps":
		return un("expps", 256)

	case "_mm_cvtss_f32":
		a, err := vecArg(0)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("float64(%s.f32(0))", a))
		return nil
	case "_mm512_reduce_add_ps":
		a, err := vecArg(0)
		if err != nil {
			return err
		}
		emit(fmt.Sprintf("reduceaddps(%s)", a))
		return nil
	}
	return fmt.Errorf("intrinsic %s has no native emitter (stays on vm)", name)
}
