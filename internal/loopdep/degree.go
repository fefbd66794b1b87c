package loopdep

import "repro/internal/ir"

// DegVariant marks a value that depends on per-iteration state in a way
// an affine extrapolation cannot follow. The lattice — degree 0
// invariant, 1 affine in the induction variable, DegVariant otherwise —
// is computed over a loop body's nodes in order, and it is the one
// lattice of the code base: this package's address probe reads it, and
// kernelc's loop-nest optimizer hoists the degree-0 nodes and
// strength-reduces the degree-1 ones. The lattice accepts affine values
// at every integer width, because the probe evaluates address chains at
// concrete iterations and its three-point linearity check catches
// wraparound; kernelc adds its own narrower rules on top (see its
// planLoop).
const DegVariant = 99

// ExpDegree is the degree of an operand expression. bodyDefined holds
// the symbols the loop body defines (its parameters included); deg the
// degrees of the body nodes already classified. Symbols defined outside
// the body — function parameters, outer-loop values, outer induction
// variables — are invariant from this loop's point of view.
func ExpDegree(e ir.Exp, iv ir.Sym, bodyDefined map[int]bool, deg map[int]int) int {
	switch x := e.(type) {
	case ir.Const:
		return 0
	case ir.Sym:
		if x.ID == iv.ID {
			return 1
		}
		if !bodyDefined[x.ID] {
			return 0
		}
		if dg, ok := deg[x.ID]; ok {
			return dg
		}
		return DegVariant
	default:
		return DegVariant
	}
}

// NodeDegree computes a def's degree in the induction variable. Only
// pure, block-free scalar ops from a non-faulting whitelist are ever
// invariant or affine (the scalar evaluators never error: shifts mask
// their count, integer div/rem by zero wrap to 0).
func NodeDegree(d *ir.Def, iv ir.Sym, bodyDefined map[int]bool, deg map[int]int) int {
	if len(d.Blocks) != 0 || !d.Effect.IsPure() {
		return DegVariant
	}
	argDeg := func(e ir.Exp) int { return ExpDegree(e, iv, bodyDefined, deg) }
	switch d.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl, ir.OpNeg:
		// Linear-capable: degree arithmetic below.
	case ir.OpDiv, ir.OpRem, ir.OpShr, ir.OpNot, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpMin, ir.OpMax, ir.OpConv, ir.OpSel,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		// Whitelisted but not linear: invariant only when every operand
		// is.
		for _, a := range d.Args {
			if argDeg(a) != 0 {
				return DegVariant
			}
		}
		return 0
	case ir.OpPtrAdd:
		// Pointer chains are chased separately (ptrDegree); as a plain
		// value a ptradd inherits the displacement's degree.
		if len(d.Args) == 2 && argDeg(d.Args[0]) == 0 {
			return argDeg(d.Args[1])
		}
		return DegVariant
	default:
		// Intrinsics, memory ops, control flow.
		return DegVariant
	}
	out := DegVariant
	switch d.Op {
	case ir.OpAdd, ir.OpSub:
		if len(d.Args) == 2 {
			a, b := argDeg(d.Args[0]), argDeg(d.Args[1])
			out = a
			if b > out {
				out = b
			}
		}
	case ir.OpMul:
		if len(d.Args) == 2 {
			out = argDeg(d.Args[0]) + argDeg(d.Args[1])
		}
	case ir.OpShl:
		// a << k is a·2^k: linear in a when the shift count is
		// invariant.
		if len(d.Args) == 2 && argDeg(d.Args[1]) == 0 {
			out = argDeg(d.Args[0])
		}
	case ir.OpNeg:
		if len(d.Args) == 1 {
			out = argDeg(d.Args[0])
		}
	}
	if out > 1 {
		return DegVariant
	}
	return out
}
