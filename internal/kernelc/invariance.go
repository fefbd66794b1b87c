package kernelc

import (
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/vm"
)

// keyedKind reports whether a parameter of this kind is part of the
// count key: integers, bools and pointers.
func keyedKind(k ir.Kind) bool {
	t := ir.Type{Kind: k}
	return k == ir.KindPtr || k == ir.KindBool || t.IsInteger()
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

// sinkOperands lists the operand positions of d that steer control or
// addressing, the count proof's sinks: a loop's start, end and stride;
// an if's condition; the pointer and index of aload, astore and ptradd;
// an intrinsic's integer and pointer operands (addresses, lane indices,
// immediates); and every operand of a gather or masked intrinsic, whose
// vector operands pick the addresses touched.
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
// parameter kinds. The caller vouches that f's program passed Proof and
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
