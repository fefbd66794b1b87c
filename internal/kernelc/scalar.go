package kernelc

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/vm"
)

// compileScalar lowers the host-language scalar vocabulary (add, mul,
// compares, bit ops) interleaved between intrinsic calls. An inlined
// producer replaces the operand at inl.pos (superinstruction fusion).
func (c *compiler) compileScalar(n *ir.Node, inl *inline) (*valNode, error) {
	d := n.Def
	args, err := c.fusedRefs(d.Args, inl)
	if err != nil {
		return nil, err
	}
	t := d.Typ
	cost := scalarCost(d.Op, t)
	ie, pos := inlineParts(inl)

	// A fused producer evaluates into this node's own destination, which
	// the result then overwrites.
	switch len(args) {
	case 1:
		fn, err := unaryFn(d.Op, t)
		if err != nil {
			return nil, err
		}
		a := args[0]
		eval := func(fr *frame, out *vm.Value) error {
			if pos < 0 {
				*out = fn(a.get(fr))
				return nil
			}
			if err := ie(fr, out); err != nil {
				return err
			}
			*out = fn(*out)
			return nil
		}
		return c.valNode(n, eval, countDelta{cost, 1}), nil
	case 2:
		// Comparisons evaluate at the operand type, not the bool result
		// type.
		opT := t
		if isCmp(d.Op) {
			opT = d.Args[0].Type()
		}
		fn, err := binaryFn(d.Op, opT)
		if err != nil {
			return nil, err
		}
		a, b := args[0], args[1]
		var eval evalFn
		switch pos {
		case 0:
			eval = func(fr *frame, out *vm.Value) error {
				if err := ie(fr, out); err != nil {
					return err
				}
				*out = fn(*out, b.get(fr))
				return nil
			}
		case 1:
			eval = func(fr *frame, out *vm.Value) error {
				if err := ie(fr, out); err != nil {
					return err
				}
				*out = fn(a.get(fr), *out)
				return nil
			}
		default:
			eval = func(fr *frame, out *vm.Value) error {
				*out = fn(a.get(fr), b.get(fr))
				return nil
			}
		}
		return c.valNode(n, eval, countDelta{cost, 1}), nil
	default:
		return nil, fmt.Errorf("scalar op %s with %d args", d.Op, len(args))
	}
}

func isCmp(op string) bool {
	switch op {
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return true
	}
	return false
}

// scalarCost picks the pseudo-op the cost model prices this operation as.
func scalarCost(op string, t ir.Type) string {
	switch op {
	case ir.OpMul:
		if t.IsFloat() {
			return OpScalarFMul
		}
		return OpScalarMul
	case ir.OpDiv, ir.OpRem:
		if t.IsFloat() {
			return OpScalarFDiv
		}
		return OpScalarDiv
	case ir.OpAdd, ir.OpSub, ir.OpNeg, ir.OpMin, ir.OpMax:
		if t.IsFloat() {
			return OpScalarFP
		}
		return OpScalarALU
	default:
		return OpScalarALU
	}
}

func unaryFn(op string, t ir.Type) (func(vm.Value) vm.Value, error) {
	switch op {
	case ir.OpNeg:
		if t.IsFloat() {
			return func(a vm.Value) vm.Value {
				a.F = -a.F
				if t.Kind == ir.KindF32 {
					a.F = float64(float32(a.F))
				}
				return a
			}, nil
		}
		return func(a vm.Value) vm.Value { return truncInt(t, -a.AsInt()) }, nil
	case ir.OpNot:
		if t.Kind == ir.KindBool {
			return func(a vm.Value) vm.Value {
				a.B = !a.B
				return a
			}, nil
		}
		return func(a vm.Value) vm.Value { return truncInt(t, ^a.AsInt()) }, nil
	}
	return nil, fmt.Errorf("unsupported unary op %s", op)
}

func binaryFn(op string, t ir.Type) (func(a, b vm.Value) vm.Value, error) {
	if t.IsFloat() {
		f64 := t.Kind == ir.KindF64
		round := func(x float64) vm.Value {
			if !f64 {
				x = float64(float32(x))
			}
			return vm.Value{Kind: t.Kind, F: x}
		}
		switch op {
		case ir.OpAdd:
			return func(a, b vm.Value) vm.Value { return round(a.F + b.F) }, nil
		case ir.OpSub:
			return func(a, b vm.Value) vm.Value { return round(a.F - b.F) }, nil
		case ir.OpMul:
			return func(a, b vm.Value) vm.Value { return round(a.F * b.F) }, nil
		case ir.OpDiv:
			return func(a, b vm.Value) vm.Value { return round(a.F / b.F) }, nil
		case ir.OpMin:
			return func(a, b vm.Value) vm.Value {
				if b.F < a.F {
					return round(b.F)
				}
				return round(a.F)
			}, nil
		case ir.OpMax:
			return func(a, b vm.Value) vm.Value {
				if b.F > a.F {
					return round(b.F)
				}
				return round(a.F)
			}, nil
		case ir.OpEq:
			return cmpFn(func(a, b vm.Value) bool { return a.F == b.F }), nil
		case ir.OpNe:
			return cmpFn(func(a, b vm.Value) bool { return a.F != b.F }), nil
		case ir.OpLt:
			return cmpFn(func(a, b vm.Value) bool { return a.F < b.F }), nil
		case ir.OpLe:
			return cmpFn(func(a, b vm.Value) bool { return a.F <= b.F }), nil
		case ir.OpGt:
			return cmpFn(func(a, b vm.Value) bool { return a.F > b.F }), nil
		case ir.OpGe:
			return cmpFn(func(a, b vm.Value) bool { return a.F >= b.F }), nil
		}
		return nil, fmt.Errorf("unsupported float op %s", op)
	}
	if t.Kind == ir.KindBool {
		switch op {
		case ir.OpAnd:
			return cmpFn(func(a, b vm.Value) bool { return a.B && b.B }), nil
		case ir.OpOr:
			return cmpFn(func(a, b vm.Value) bool { return a.B || b.B }), nil
		case ir.OpXor, ir.OpNe:
			return cmpFn(func(a, b vm.Value) bool { return a.B != b.B }), nil
		case ir.OpEq:
			return cmpFn(func(a, b vm.Value) bool { return a.B == b.B }), nil
		}
		return nil, fmt.Errorf("unsupported bool op %s", op)
	}

	// Integers: compute in int64/uint64, truncate into the result type.
	signed := t.IsSigned()
	wrap := func(v int64) vm.Value { return truncInt(t, v) }
	switch op {
	case ir.OpAdd:
		return func(a, b vm.Value) vm.Value { return wrap(a.AsInt() + b.AsInt()) }, nil
	case ir.OpSub:
		return func(a, b vm.Value) vm.Value { return wrap(a.AsInt() - b.AsInt()) }, nil
	case ir.OpMul:
		return func(a, b vm.Value) vm.Value { return wrap(a.AsInt() * b.AsInt()) }, nil
	case ir.OpDiv:
		return func(a, b vm.Value) vm.Value {
			if b.AsInt() == 0 {
				return wrap(0)
			}
			if !signed {
				return truncInt(t, int64(uint64(a.AsInt())/uint64(b.AsInt())))
			}
			return wrap(a.AsInt() / b.AsInt())
		}, nil
	case ir.OpRem:
		return func(a, b vm.Value) vm.Value {
			if b.AsInt() == 0 {
				return wrap(0)
			}
			return wrap(a.AsInt() % b.AsInt())
		}, nil
	case ir.OpMin:
		return func(a, b vm.Value) vm.Value {
			if b.AsInt() < a.AsInt() {
				return wrap(b.AsInt())
			}
			return wrap(a.AsInt())
		}, nil
	case ir.OpMax:
		return func(a, b vm.Value) vm.Value {
			if b.AsInt() > a.AsInt() {
				return wrap(b.AsInt())
			}
			return wrap(a.AsInt())
		}, nil
	case ir.OpAnd:
		return func(a, b vm.Value) vm.Value { return wrap(a.AsInt() & b.AsInt()) }, nil
	case ir.OpOr:
		return func(a, b vm.Value) vm.Value { return wrap(a.AsInt() | b.AsInt()) }, nil
	case ir.OpXor:
		return func(a, b vm.Value) vm.Value { return wrap(a.AsInt() ^ b.AsInt()) }, nil
	case ir.OpShl:
		return func(a, b vm.Value) vm.Value { return wrap(a.AsInt() << uint(b.AsInt()&63)) }, nil
	case ir.OpShr:
		if signed {
			return func(a, b vm.Value) vm.Value { return wrap(a.AsInt() >> uint(b.AsInt()&63)) }, nil
		}
		return func(a, b vm.Value) vm.Value {
			return truncInt(t, int64(uint64(a.AsInt())>>uint(b.AsInt()&63)))
		}, nil
	case ir.OpEq:
		return cmpFn(func(a, b vm.Value) bool { return a.AsInt() == b.AsInt() }), nil
	case ir.OpNe:
		return cmpFn(func(a, b vm.Value) bool { return a.AsInt() != b.AsInt() }), nil
	case ir.OpLt:
		return intCmp(signed, func(a, b int64) bool { return a < b },
			func(a, b uint64) bool { return a < b }), nil
	case ir.OpLe:
		return intCmp(signed, func(a, b int64) bool { return a <= b },
			func(a, b uint64) bool { return a <= b }), nil
	case ir.OpGt:
		return intCmp(signed, func(a, b int64) bool { return a > b },
			func(a, b uint64) bool { return a > b }), nil
	case ir.OpGe:
		return intCmp(signed, func(a, b int64) bool { return a >= b },
			func(a, b uint64) bool { return a >= b }), nil
	}
	return nil, fmt.Errorf("unsupported integer op %s", op)
}

func cmpFn(f func(a, b vm.Value) bool) func(a, b vm.Value) vm.Value {
	return func(a, b vm.Value) vm.Value {
		return vm.Value{Kind: ir.KindBool, B: f(a, b)}
	}
}

func intCmp(signed bool, sf func(a, b int64) bool, uf func(a, b uint64) bool) func(a, b vm.Value) vm.Value {
	if signed {
		return cmpFn(func(a, b vm.Value) bool { return sf(a.AsInt(), b.AsInt()) })
	}
	return cmpFn(func(a, b vm.Value) bool { return uf(uint64(a.AsInt()), uint64(b.AsInt())) })
}
