package kernelc

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/vm"
)

// CountProof decides statically whether a body's dynamic count stream —
// and whether it errors at all — depends only on its integer, bool and
// pointer arguments (pointers by element type, length and offset), never
// on the values it reads from memory or on its float parameters. It is a
// forward taint analysis: values loaded from memory, results of
// intrinsics that read memory or machine state (see readsState), and
// float (or vector) parameters are tainted; taint flows through every
// definition, through loop accumulators, and through if results. The
// body is admitted only if no tainted value reaches an operand that
// steers control or addressing (see sinkOperands). The kernel
// interpreter's scalar ops are total, so the only runtime errors left
// are address and stride errors, and those are steered by the same
// untainted operands.
//
// It returns "" when the body is admitted and otherwise names the first
// tainted operand it found.
func CountProof(f *ir.Func) string {
	tp := &taintPass{tainted: map[int]bool{}}
	for _, p := range f.Params {
		if !keyedKind(p.Typ.Kind) {
			tp.tainted[p.ID] = true
		}
	}
	// Loop accumulators feed back into themselves, so propagate to a
	// fixpoint; taint only grows, so this terminates.
	for {
		tp.changed = false
		tp.propagate(f.G.Root())
		if !tp.changed {
			break
		}
	}
	return tp.check(f.G.Root())
}

// keyedKind reports whether a parameter of this kind is part of the
// count key (and therefore untainted): integers, bools and pointers.
func keyedKind(k ir.Kind) bool {
	t := ir.Type{Kind: k}
	return k == ir.KindPtr || k == ir.KindBool || t.IsInteger()
}

type taintPass struct {
	tainted map[int]bool
	changed bool
}

func (tp *taintPass) is(e ir.Exp) bool {
	s, ok := e.(ir.Sym)
	return ok && tp.tainted[s.ID]
}

func (tp *taintPass) mark(s ir.Sym) {
	if !tp.tainted[s.ID] {
		tp.tainted[s.ID] = true
		tp.changed = true
	}
}

func (tp *taintPass) anyArg(d *ir.Def) bool {
	for _, a := range d.Args {
		if tp.is(a) {
			return true
		}
	}
	return false
}

func (tp *taintPass) propagate(b *ir.Block) {
	for _, n := range b.Nodes {
		d := n.Def
		switch d.Op {
		case ir.OpLoop:
			body := d.Blocks[0]
			if len(d.Args) == 4 { // LoopAcc: [i, acc] params, Result = next acc
				acc := body.Params[1]
				if tp.is(d.Args[3]) {
					tp.mark(acc)
				}
				tp.propagate(body)
				if tp.is(body.Result) {
					tp.mark(acc)
				}
				if tp.is(acc) {
					tp.mark(n.Sym)
				}
				continue
			}
			tp.propagate(body)
		case ir.OpIf:
			for _, blk := range d.Blocks {
				tp.propagate(blk)
				if blk.Result != nil && tp.is(blk.Result) {
					tp.mark(n.Sym)
				}
			}
			if tp.anyArg(d) {
				tp.mark(n.Sym)
			}
		case ir.OpALoad:
			tp.mark(n.Sym)
		default:
			if tp.anyArg(d) || (ir.IsIntrinsicOp(d.Op) && readsState(d)) {
				tp.mark(n.Sym)
			}
		}
	}
}

// readsState reports whether an intrinsic's result may depend on more
// than its operand values: it has a memory or global effect, takes a
// pointer (whatever effect it declares), or takes no operands at all
// and so reads machine state (_rdtsc).
func readsState(d *ir.Def) bool {
	if !d.Effect.IsPure() || len(d.Args) == 0 {
		return true
	}
	for _, a := range d.Args {
		if a.Type().Kind == ir.KindPtr {
			return true
		}
	}
	return false
}

// check walks every block after the fixpoint and reports the first
// tainted sink operand.
func (tp *taintPass) check(b *ir.Block) string {
	for _, n := range b.Nodes {
		d := n.Def
		for _, i := range sinkOperands(d) {
			if tp.is(d.Args[i]) {
				return fmt.Sprintf("%v (%s operand %d of %s) is data-dependent",
					d.Args[i], d.Op, i, n.Sym)
			}
		}
		for _, blk := range d.Blocks {
			if why := tp.check(blk); why != "" {
				return why
			}
		}
	}
	return ""
}

// sinkOperands lists the operand positions of d that must stay
// untainted: a loop's start, end and stride; an if's condition; the
// pointer and index of aload, astore and ptradd; an intrinsic's integer
// and pointer operands (addresses, lane indices, immediates); and every
// operand of a gather or masked intrinsic, whose vector operands pick
// the addresses touched.
func sinkOperands(d *ir.Def) []int {
	switch d.Op {
	case ir.OpLoop:
		return []int{0, 1, 2}
	case ir.OpIf:
		return []int{0}
	case ir.OpALoad, ir.OpAStore, ir.OpPtrAdd:
		return []int{0, 1}
	}
	if !ir.IsIntrinsicOp(d.Op) {
		return nil
	}
	all := strings.Contains(d.Op, "gather") || strings.Contains(d.Op, "mask")
	var out []int
	for i, a := range d.Args {
		if all || keyedKind(a.Type().Kind) {
			out = append(out, i)
		}
	}
	return out
}

// CountKey returns the key under which one execution of f on args can
// reuse another's dynamic counts, and false when args do not match f's
// parameter kinds. The caller vouches that f passed CountProof and
// names the body with prefix (kernel and graph hash, or method and
// tier). The key is the prefix, each pointer argument's element type,
// length and offset, and each integer or bool argument's value; float
// arguments are left out, which the proof makes safe. Two executions of
// an admitted body with equal keys produce identical count maps and
// identical error outcomes whatever the memory contents.
func CountKey(prefix string, f *ir.Func, args []vm.Value) (string, bool) {
	if len(args) != len(f.Params) {
		return "", false
	}
	b := make([]byte, 0, len(prefix)+16*len(args))
	b = append(b, prefix...)
	for i, a := range args {
		k := f.Params[i].Typ.Kind
		if a.Kind != k {
			return "", false
		}
		switch {
		case k == ir.KindPtr:
			if a.Mem == nil {
				b = append(b, "|nil"...)
				continue
			}
			b = append(b, "|p"...)
			b = strconv.AppendInt(b, int64(a.Mem.Prim), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(a.Mem.Len()), 10)
			b = append(b, '+')
			b = strconv.AppendInt(b, int64(a.Off), 10)
		case k == ir.KindBool:
			b = append(b, "|b"...)
			b = strconv.AppendBool(b, a.B)
		case keyedKind(k):
			b = append(b, "|i"...)
			b = strconv.AppendInt(b, a.I, 10)
			b = append(b, ':')
			b = strconv.AppendUint(b, a.U, 10)
		}
	}
	return string(b), true
}
