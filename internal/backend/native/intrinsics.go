package native

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/vm"
)

// lowering is how a plugin computes one intrinsic: the lane kernel of
// vm.LaneSource it calls, the register width it passes, the kinds of
// the intrinsic's operands in order, and the kind of its result. An
// empty kernel is a reinterpreting cast: the result is the operand.
type lowering struct {
	kernel string
	bits   int
	// ops has one byte per operand: 'v' a vector register, passed by
	// pointer; 'i' an integer immediate (int); 'n' an integer scalar
	// (int64, vm.Value.AsInt); 'f' a float scalar (float64,
	// vm.Value.AsFloat); 'p' a pointer, passed as the buffer's bytes
	// and a byte offset scaled as vm.AccessOf states. A kernel with a
	// pointer operand returns the vm's bounds error.
	ops string
	// res is 'v' for a vector result, written through the kernel's
	// leading dst; 'f' for a float32 the kernel returns; 0 for none.
	res byte
}

// lowerings is the set of intrinsics the plugin computes. Anything
// absent is not native-lowerable and stays on the vm interpreter: the
// set grows with the kernel suite, not with the vm's full catalogue.
var lowerings = func() map[string]lowering {
	t := map[string]lowering{
		"_mm_loadu_si128":             {"loadBytes", 128, "p", 'v'},
		"_mm256_loadu_si256":          {"loadBytes", 256, "p", 'v'},
		"_mm512_loadu_ps":             {"loadBytes", 512, "p", 'v'},
		"_mm256_broadcast_ss":         {"broadcastSs", 256, "p", 'v'},
		"_mm512_fmadd_ps":             {"fmaddPs", 512, "vvv", 'v'},
		"_mm_set1_ps":                 {"set1Ps", 128, "f", 'v'},
		"_mm256_set1_ps":              {"set1Ps", 256, "f", 'v'},
		"_mm512_set1_ps":              {"set1Ps", 512, "f", 'v'},
		"_mm_set1_pd":                 {"set1Pd", 128, "f", 'v'},
		"_mm256_set1_pd":              {"set1Pd", 256, "f", 'v'},
		"_mm256_set1_epi8":            {"set1Epi8", 256, "n", 'v'},
		"_mm256_set1_epi16":           {"set1Epi16", 256, "n", 'v'},
		"_mm256_setzero_ps":           {"setzero", 256, "", 'v'},
		"_mm256_setzero_si256":        {"setzero", 256, "", 'v'},
		"_mm512_setzero_ps":           {"setzero", 512, "", 'v'},
		"_mm256_and_si256":            {"andBits", 256, "vv", 'v'},
		"_mm256_or_si256":             {"orBits", 256, "vv", 'v'},
		"_mm256_cmpeq_epi8":           {"cmpeqEpi8", 256, "vv", 'v'},
		"_mm256_abs_epi8":             {"absEpi8", 256, "v", 'v'},
		"_mm256_sign_epi8":            {"signEpi8", 256, "vv", 'v'},
		"_mm256_add_epi32":            {"addEpi32", 256, "vv", 'v'},
		"_mm256_madd_epi16":           {"maddEpi16", 256, "vv", 'v'},
		"_mm256_maddubs_epi16":        {"maddubsEpi16", 256, "vv", 'v'},
		"_mm256_srli_epi16":           {"srliEpi16", 256, "vi", 'v'},
		"_mm256_shuffle_epi8":         {"shuffleEpi8", 256, "vv", 'v'},
		"_mm256_shuffle_ps":           {"shufflePs", 256, "vvi", 'v'},
		"_mm256_hadd_ps":              {"haddPs", 256, "vv", 'v'},
		"_mm256_permute2f128_ps":      {"permute2f128Ps", 256, "vvi", 'v'},
		"_mm256_extractf128_ps":       {"extractf128Ps", 256, "vi", 'v'},
		"_mm256_unpacklo_ps":          {"unpackloPs", 256, "vv", 'v'},
		"_mm256_unpackhi_ps":          {"unpackhiPs", 256, "vv", 'v'},
		"_mm256_broadcastsi128_si256": {"broadcastsi128Si256", 256, "v", 'v'},
		"_mm256_castps256_ps128":      {"", 256, "v", 'v'},
		"_mm256_cvtepi32_ps":          {"cvtepi32Ps", 256, "v", 'v'},
		"_mm256_cvtph_ps":             {"cvtphPs", 256, "v", 'v'},
		"_mm256_exp_ps":               {"expPs", 256, "v", 'v'},
		"_mm_cvtss_f32":               {"cvtssF32", 128, "v", 'f'},
		"_mm512_reduce_add_ps":        {"reduceAddPs", 512, "v", 'f'},
	}
	// Packed-float lane ops at both SSE/AVX widths and precisions. The
	// vm treats aligned loads and stores as unaligned ones (the
	// simulated machine has no alignment faults), and its bitwise ops
	// are precision-blind.
	for _, w := range []struct {
		pfx  string
		bits int
	}{{"_mm_", 128}, {"_mm256_", 256}} {
		for _, prec := range []string{"ps", "pd"} {
			sfx := "_" + prec
			k := strings.ToUpper(prec[:1]) + prec[1:]
			for _, op := range []string{"add", "sub", "mul", "div", "min", "max"} {
				t[w.pfx+op+sfx] = lowering{op + k, w.bits, "vv", 'v'}
			}
			t[w.pfx+"sqrt"+sfx] = lowering{"sqrt" + k, w.bits, "v", 'v'}
			for _, op := range []string{"fmadd", "fmsub", "fnmadd", "fnmsub"} {
				t[w.pfx+op+sfx] = lowering{op + k, w.bits, "vvv", 'v'}
			}
			for _, op := range []string{"and", "or", "xor", "andnot"} {
				t[w.pfx+op+sfx] = lowering{op + "Bits", w.bits, "vv", 'v'}
			}
			for _, op := range []string{"load", "loadu"} {
				t[w.pfx+op+sfx] = lowering{"loadBytes", w.bits, "p", 'v'}
			}
			for _, op := range []string{"store", "storeu"} {
				t[w.pfx+op+sfx] = lowering{"storeBytes", w.bits, "pv", 0}
			}
		}
	}
	return t
}()

// intrinsic emits one intrinsic call as a call of its lane kernel.
func (g *gen) intrinsic(n *ir.Node) error {
	d := n.Def
	name := d.Op
	lw, ok := lowerings[name]
	if !ok {
		return fmt.Errorf("intrinsic %s has no native emitter (stays on vm)", name)
	}
	id := n.Sym.ID
	x := vname(n.Sym)
	var ops []string
	for i := 0; i < len(lw.ops); i++ {
		// A malformed node with too few operands reads nil here, which
		// every kind below refuses as not lowerable.
		var e ir.Exp
		if i < len(d.Args) {
			e = d.Args[i]
		}
		switch lw.ops[i] {
		case 'v':
			s, ok := e.(ir.Sym)
			if !ok || s.Typ.Kind != ir.KindVec {
				return fmt.Errorf("%s: argument %d of %d is not a vector register", name, i, len(d.Args))
			}
			ops = append(ops, "&"+vname(s))
		case 'i':
			v, err := g.asInt(e)
			if err != nil {
				return fmt.Errorf("%s: argument %d of %d: %w", name, i, len(d.Args), err)
			}
			ops = append(ops, fmt.Sprintf("int(%s)", v))
		case 'n':
			v, err := g.asInt(e)
			if err != nil {
				return err
			}
			ops = append(ops, v)
		case 'f':
			v, err := g.asFloat(e)
			if err != nil {
				return err
			}
			ops = append(ops, v)
		case 'p':
			ps, err := ptrArg(e)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			scale := ps.Typ.Elem.Bits() / 8
			if a, _ := vm.AccessOf(name); a.Scale != 0 {
				scale = a.Scale
			}
			ops = append(ops, pd(ps), fmt.Sprintf("int(%s)*%d", po(ps), scale))
		}
	}
	if lw.kernel == "" {
		g.p("%s := %s", x, strings.TrimPrefix(ops[0], "&"))
		g.p("_ = %s", x)
		return nil
	}
	ops = append([]string{fmt.Sprint(lw.bits)}, ops...)
	if lw.res == 'v' {
		g.p("var %s Vec", x)
		ops = append([]string{"&" + x}, ops...)
	}
	call := fmt.Sprintf("%s(%s)", lw.kernel, strings.Join(ops, ", "))
	switch {
	case strings.IndexByte(lw.ops, 'p') >= 0:
		// The interpreter's intrinsic error wrapping: the vm's runtime
		// error prefixed with the intrinsic name (kernelc then adds the
		// "kernelc: <kernel>:" outer layer on the host side).
		g.p("if e%d := %s; e%d != nil {", id, call, id)
		g.ind++
		g.p("err = fmt.Errorf(%q, e%d)", name+": %w", id)
		g.p("return")
		g.ind--
		g.p("}")
	case lw.res == 'f':
		g.p("%s := float64(%s)", x, call)
		g.p("_ = %s", x)
	default:
		g.p("%s", call)
	}
	return nil
}
