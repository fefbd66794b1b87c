package kernelc

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/vm"
)

// setVec makes *out refer to d. out is usually this node's own
// register, which already does after the node's first run, so the
// header is written only when it does not.
func setVec(out *vm.Value, d *vm.Vec) {
	if out.V != d || out.Kind != ir.KindVec {
		*out = vm.Value{Kind: ir.KindVec, V: d}
	}
}

// operand returns the register holding the operand e: a symbol's own,
// or a constant's.
func (c *compiler) operand(e ir.Exp) (int, error) {
	if x, ok := e.(ir.Const); ok {
		return c.constant(constValue(x)), nil
	}
	ref, err := c.ref(e)
	return ref.slot, err
}

// laneCall is a bound intrinsic call site: its operands' registers and
// its slot of the vector register file.
type laneCall struct {
	r   [3]int // the operands' registers, in order (no kernel takes more)
	idx int    // the register of the pointer operand's index (load, store)
	vs  int    // the result's slot of the vector register file, or -1
	// fused, when set, evaluates the producer fused into operand
	// register fr.
	fused evalFn
	fr    int
}

// operands runs the fused producer, if any, into its operand register.
func (lc *laneCall) operands(fr *frame) error {
	if lc.fused == nil {
		return nil
	}
	return lc.fused(fr, &fr.regs[lc.fr])
}

// compileLane binds an intrinsic with a lane binding (vm.Lane): one
// direct call of its kernel on the frame's registers. Every operand is
// a register: a symbol's own, a constant's (see constant), or, for a
// fused producer, an arena register the producer evaluates into. A
// vector operand is passed as the register its Value refers to, and a
// vector result is written into the node's slot of the vector register
// file. A pointer operand is a pointer register plus an index register
// (a constant 0), and a fused pointer add without a producer of its
// own is not run at all: the load or store adds its index itself. No
// vm.Value is gathered; the kernel, its width and its operand kinds
// are the ones vm.Intrinsic.Fn is built from, so both compute the same
// thing.
func (c *compiler) compileLane(n *ir.Node, l *vm.Lane, inl *inline) (*valNode, error) {
	name := n.Def.Op
	args := n.Def.Args
	kinds := l.Operands()
	if len(args) < len(kinds) {
		return nil, fmt.Errorf("intrinsic %s takes %d operands, got %d", name, len(kinds), len(args))
	}
	lc := &laneCall{idx: -1, vs: -1}
	for i, a := range args {
		ptr := i < len(kinds) && kinds[i] == 'p'
		var r int
		var err error
		switch {
		case inl != nil && i == inl.pos && ptr && inl.addr != nil:
			if r, err = c.operand(inl.addr[0]); err == nil {
				lc.idx, err = c.operand(inl.addr[1])
			}
		case inl != nil && i == inl.pos:
			r = c.reserve(1)
			lc.fused, lc.fr = inl.eval, r
		default:
			r, err = c.operand(a)
		}
		if err != nil {
			return nil, err
		}
		if ptr && lc.idx < 0 {
			lc.idx = c.constant(vm.IntValue(0))
		}
		if i < len(lc.r) {
			lc.r[i] = r
		}
	}
	if _, cast := l.Kernel.(vm.Cast); l.Result() == 'v' && !cast {
		lc.vs = c.vecNext
		c.vecNext++
	}
	eval, err := lc.eval(name, l)
	if err != nil {
		return nil, err
	}
	return c.valNode(n, eval), nil
}

// eval builds the call site's evaluator for the kernel's shape.
func (lc *laneCall) eval(name string, l *vm.Lane) (evalFn, error) {
	bits, vs, idx := l.Bits, lc.vs, lc.idx
	a, b, c := lc.r[0], lc.r[1], lc.r[2]
	switch k := l.Kernel.(type) {
	case vm.Kernel0:
		return func(fr *frame, out *vm.Value) error {
			d := &fr.vecs[vs]
			k(d, bits)
			setVec(out, d)
			return nil
		}, nil
	case vm.Kernel1:
		return func(fr *frame, out *vm.Value) error {
			if err := lc.operands(fr); err != nil {
				return err
			}
			d := &fr.vecs[vs]
			k(d, bits, fr.regs[a].Reg())
			setVec(out, d)
			return nil
		}, nil
	case vm.Kernel2:
		return func(fr *frame, out *vm.Value) error {
			if err := lc.operands(fr); err != nil {
				return err
			}
			d := &fr.vecs[vs]
			k(d, bits, fr.regs[a].Reg(), fr.regs[b].Reg())
			setVec(out, d)
			return nil
		}, nil
	case vm.Kernel3:
		return func(fr *frame, out *vm.Value) error {
			if err := lc.operands(fr); err != nil {
				return err
			}
			d := &fr.vecs[vs]
			k(d, bits, fr.regs[a].Reg(), fr.regs[b].Reg(), fr.regs[c].Reg())
			setVec(out, d)
			return nil
		}, nil
	case vm.Kernel1Imm:
		return func(fr *frame, out *vm.Value) error {
			if err := lc.operands(fr); err != nil {
				return err
			}
			d := &fr.vecs[vs]
			k(d, bits, fr.regs[a].Reg(), int(fr.regs[b].AsInt()))
			setVec(out, d)
			return nil
		}, nil
	case vm.Kernel2Imm:
		return func(fr *frame, out *vm.Value) error {
			if err := lc.operands(fr); err != nil {
				return err
			}
			d := &fr.vecs[vs]
			k(d, bits, fr.regs[a].Reg(), fr.regs[b].Reg(), int(fr.regs[c].AsInt()))
			setVec(out, d)
			return nil
		}, nil
	case vm.KernelSetF:
		return func(fr *frame, out *vm.Value) error {
			if err := lc.operands(fr); err != nil {
				return err
			}
			d := &fr.vecs[vs]
			k(d, bits, fr.regs[a].AsFloat())
			setVec(out, d)
			return nil
		}, nil
	case vm.KernelSetI:
		return func(fr *frame, out *vm.Value) error {
			if err := lc.operands(fr); err != nil {
				return err
			}
			d := &fr.vecs[vs]
			k(d, bits, fr.regs[a].AsInt())
			setVec(out, d)
			return nil
		}, nil
	case vm.KernelLoad:
		return func(fr *frame, out *vm.Value) error {
			if err := lc.operands(fr); err != nil {
				return err
			}
			d := &fr.vecs[vs]
			p := &fr.regs[a]
			if err := l.Load(fr.m, d, p.Mem, p.Off+int(fr.regs[idx].AsInt())); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			setVec(out, d)
			return nil
		}, nil
	case vm.KernelStore:
		return func(fr *frame, out *vm.Value) error {
			if err := lc.operands(fr); err != nil {
				return err
			}
			p := &fr.regs[a]
			if err := l.Store(fr.m, p.Mem, p.Off+int(fr.regs[idx].AsInt()), fr.regs[b].Reg()); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			return nil
		}, nil
	case vm.KernelF32:
		return func(fr *frame, out *vm.Value) error {
			if err := lc.operands(fr); err != nil {
				return err
			}
			*out = vm.F32Value(k(bits, fr.regs[a].Reg()))
			return nil
		}, nil
	case vm.Cast:
		return func(fr *frame, out *vm.Value) error {
			if err := lc.operands(fr); err != nil {
				return err
			}
			*out = vm.Value{Kind: ir.KindVec, V: fr.regs[a].Reg()}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("intrinsic %s: lane kernel of type %T", name, l.Kernel)
}
