package conform

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/ir"
	"repro/internal/vm"
)

// oracle is the scalar reference evaluator: a tree-walking interpreter
// over the staged graph that executes every node in program order,
// lane by lane, with none of the interpreter's batching, fusion, frame
// pooling or destination passing. Its only job is to be obviously
// correct; the differential harness holds every real backend to it.
type oracle struct {
	f   *ir.Func
	env map[int]vm.Value
}

// RunOracle evaluates f over the given arguments, mutating pointer
// arguments' buffers in place, and returns the kernel's result value
// (the zero Value for void kernels, as the vm returns).
func RunOracle(f *ir.Func, args []vm.Value) (vm.Value, error) {
	if len(args) != len(f.Params) {
		return vm.Value{}, fmt.Errorf("oracle: %s takes %d arguments, got %d",
			f.Name, len(f.Params), len(args))
	}
	o := &oracle{f: f, env: map[int]vm.Value{}}
	for i, p := range f.Params {
		o.env[p.ID] = args[i]
	}
	if err := o.block(f.G.Root()); err != nil {
		return vm.Value{}, fmt.Errorf("oracle: %s: %w", f.Name, err)
	}
	if res := f.G.Root().Result; res != nil {
		return o.exp(res)
	}
	return vm.Value{}, nil
}

// block executes every non-comment node in program order — including
// dead pure nodes the schedulers drop; being pure, they cannot change
// observable state, and the naive order keeps the oracle trivially
// auditable.
func (o *oracle) block(b *ir.Block) error {
	for _, n := range b.Nodes {
		if n.Def.Op == ir.OpComment {
			continue
		}
		v, err := o.def(n.Def)
		if err != nil {
			return fmt.Errorf("x%d = %s: %w", n.Sym.ID, n.Def.Op, err)
		}
		o.env[n.Sym.ID] = v
	}
	return nil
}

func (o *oracle) exp(e ir.Exp) (vm.Value, error) {
	switch x := e.(type) {
	case ir.Const:
		return constVal(x), nil
	case ir.Sym:
		v, ok := o.env[x.ID]
		if !ok {
			return vm.Value{}, fmt.Errorf("use of undefined symbol x%d", x.ID)
		}
		return v, nil
	default:
		return vm.Value{}, fmt.Errorf("unsupported expression %T", e)
	}
}

// constVal mirrors kernelc's constant materialisation.
func constVal(c ir.Const) vm.Value {
	v := vm.Value{Kind: c.Typ.Kind}
	switch {
	case c.Typ.Kind == ir.KindBool:
		v.B = c.B
	case c.Typ.IsFloat():
		v.F = c.F
	case c.Typ.IsSigned():
		v.I = c.I
	default:
		v.U = c.U
	}
	return v
}

func (o *oracle) args(d *ir.Def) ([]vm.Value, error) {
	out := make([]vm.Value, len(d.Args))
	for i, a := range d.Args {
		v, err := o.exp(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (o *oracle) def(d *ir.Def) (vm.Value, error) {
	switch d.Op {
	case ir.OpLoop:
		return o.loop(d)
	case ir.OpALoad:
		return o.aload(d)
	case ir.OpAStore:
		return o.astore(d)
	case ir.OpPtrAdd:
		args, err := o.args(d)
		if err != nil {
			return vm.Value{}, err
		}
		ptr := args[0]
		ptr.Off += int(args[1].AsInt())
		return ptr, nil
	}
	if ir.IsIntrinsicOp(d.Op) {
		return o.intrinsic(d)
	}
	return o.scalar(d)
}

// loop executes a counted loop, optionally accumulator-carrying
// (`for (i = start; i < end; i += stride)`, the kernelc driver's exact
// iteration rule).
func (o *oracle) loop(d *ir.Def) (vm.Value, error) {
	args, err := o.args(d)
	if err != nil {
		return vm.Value{}, err
	}
	start, end, stride := args[0].AsInt(), args[1].AsInt(), args[2].AsInt()
	if stride <= 0 {
		return vm.Value{}, fmt.Errorf("loop stride %d is not positive", stride)
	}
	body := d.Blocks[0]
	carries := len(d.Args) == 4
	var acc vm.Value
	if carries {
		acc = args[3]
	}
	for i := start; i < end; i += stride {
		o.env[body.Params[0].ID] = vm.Value{Kind: ir.KindI32, I: i}
		if carries {
			o.env[body.Params[1].ID] = acc
		}
		if err := o.block(body); err != nil {
			return vm.Value{}, err
		}
		if carries {
			acc, err = o.exp(body.Result)
			if err != nil {
				return vm.Value{}, err
			}
		}
	}
	return acc, nil
}

func (o *oracle) elemPtr(args []vm.Value, opName string) (*vm.Buffer, int, error) {
	ptr, idxV := args[0], args[1]
	if ptr.Mem == nil {
		return nil, 0, fmt.Errorf("%s through nil array", opName)
	}
	idx := int(idxV.AsInt()) + ptr.Off
	if idx < 0 || idx >= ptr.Mem.Len() {
		return nil, 0, fmt.Errorf("%s index %d out of bounds [0,%d)", opName, idx, ptr.Mem.Len())
	}
	return ptr.Mem, idx, nil
}

func (o *oracle) aload(d *ir.Def) (vm.Value, error) {
	args, err := o.args(d)
	if err != nil {
		return vm.Value{}, err
	}
	buf, idx, err := o.elemPtr(args, "aload")
	if err != nil {
		return vm.Value{}, err
	}
	v := vm.Value{Kind: d.Typ.Kind}
	switch d.Typ.Kind {
	case ir.KindF32:
		v.F = float64(buf.F32At(idx))
	case ir.KindF64:
		v.F = buf.F64At(idx)
	case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
		v.U = uint64(buf.IntAt(idx))
	default:
		v.I = buf.IntAt(idx)
	}
	return v, nil
}

func (o *oracle) astore(d *ir.Def) (vm.Value, error) {
	args, err := o.args(d)
	if err != nil {
		return vm.Value{}, err
	}
	buf, idx, err := o.elemPtr(args, "astore")
	if err != nil {
		return vm.Value{}, err
	}
	v := args[2]
	switch v.Kind {
	case ir.KindF32, ir.KindF64:
		if buf.Prim.Bits() == 32 {
			buf.SetF32At(idx, float32(v.F))
		} else {
			buf.SetF64At(idx, v.F)
		}
	default:
		buf.SetIntAt(idx, v.AsInt())
	}
	return vm.Value{}, nil
}

// scalar evaluates the host-language scalar vocabulary with kernelc's
// exact semantics: f32 math rounds through float32 after every op,
// integers compute in int64 and truncate into the result kind.
func (o *oracle) scalar(d *ir.Def) (vm.Value, error) {
	args, err := o.args(d)
	if err != nil {
		return vm.Value{}, err
	}
	t := d.Typ
	if len(args) == 2 && t.IsFloat() {
		a, b := args[0].F, args[1].F
		round := func(x float64) (vm.Value, error) {
			if t.Kind == ir.KindF32 {
				x = float64(float32(x))
			}
			return vm.Value{Kind: t.Kind, F: x}, nil
		}
		switch d.Op {
		case ir.OpAdd:
			return round(a + b)
		case ir.OpSub:
			return round(a - b)
		case ir.OpMul:
			return round(a * b)
		case ir.OpDiv:
			return round(a / b)
		case ir.OpMin:
			if b < a {
				return round(b)
			}
			return round(a)
		case ir.OpMax:
			if b > a {
				return round(b)
			}
			return round(a)
		}
		return vm.Value{}, fmt.Errorf("unsupported float op %s", d.Op)
	}
	if len(args) == 2 && t.IsInteger() {
		a, b := args[0].AsInt(), args[1].AsInt()
		wrap := func(v int64) (vm.Value, error) { return truncInt(t, v), nil }
		switch d.Op {
		case ir.OpAdd:
			return wrap(a + b)
		case ir.OpSub:
			return wrap(a - b)
		case ir.OpMul:
			return wrap(a * b)
		}
		return vm.Value{}, fmt.Errorf("unsupported int op %s", d.Op)
	}
	return vm.Value{}, fmt.Errorf("unsupported scalar op %s/%d", d.Op, len(args))
}

// truncInt mirrors kernelc's integer truncation into a result kind.
func truncInt(to ir.Type, raw int64) vm.Value {
	out := vm.Value{Kind: to.Kind}
	switch to.Kind {
	case ir.KindI8:
		out.I = int64(int8(raw))
	case ir.KindI16:
		out.I = int64(int16(raw))
	case ir.KindI32:
		out.I = int64(int32(raw))
	case ir.KindI64:
		out.I = raw
	case ir.KindU8:
		out.U = uint64(uint8(raw))
	case ir.KindU16:
		out.U = uint64(uint16(raw))
	case ir.KindU32:
		out.U = uint64(uint32(raw))
	case ir.KindU64:
		out.U = uint64(raw)
	default:
		out.I = raw
	}
	return out
}

// intrinsic evaluates the SIMD vocabulary the generator emits, lane by
// lane. Anything outside the grammar is a loud error: the oracle must
// never silently guess a semantic.
func (o *oracle) intrinsic(d *ir.Def) (vm.Value, error) {
	args, err := o.args(d)
	if err != nil {
		return vm.Value{}, err
	}
	name := d.Op
	width, rest := splitIntrinsic(name)
	if width == 0 {
		return vm.Value{}, fmt.Errorf("oracle has no semantic for %s", name)
	}
	stemName, sfx, ok := strings.Cut(rest, "_")
	if !ok || (sfx != "ps" && sfx != "pd") {
		return vm.Value{}, fmt.Errorf("oracle has no semantic for %s", name)
	}
	f64 := sfx == "pd"
	lanes := width / 32
	if f64 {
		lanes = width / 64
	}
	bytes := width / 8

	switch stemName {
	case "loadu", "load":
		buf, off := args[0].Mem, args[0].Off
		if buf == nil {
			return vm.Value{}, fmt.Errorf("%s through nil pointer", name)
		}
		byteOff := off * buf.Prim.Bits() / 8
		if byteOff < 0 || byteOff+bytes > len(buf.Data) {
			return vm.Value{}, fmt.Errorf("vm: out-of-bounds access [%d,%d) of %d-byte buffer",
				byteOff, byteOff+bytes, len(buf.Data))
		}
		var out vm.Vec
		for l := 0; l < lanes; l++ {
			if f64 {
				out.SetF64(l, buf.F64At(off+l))
			} else {
				out.SetF32(l, buf.F32At(off+l))
			}
		}
		return vm.VecValue(out), nil
	case "storeu", "store":
		buf, off := args[0].Mem, args[0].Off
		if buf == nil {
			return vm.Value{}, fmt.Errorf("%s through nil pointer", name)
		}
		byteOff := off * buf.Prim.Bits() / 8
		if byteOff < 0 || byteOff+bytes > len(buf.Data) {
			return vm.Value{}, fmt.Errorf("vm: out-of-bounds access [%d,%d) of %d-byte buffer",
				byteOff, byteOff+bytes, len(buf.Data))
		}
		v := args[1].V
		for l := 0; l < lanes; l++ {
			if f64 {
				buf.SetF64At(off+l, v.F64(l))
			} else {
				buf.SetF32At(off+l, v.F32(l))
			}
		}
		return vm.Value{}, nil
	case "set1":
		var out vm.Vec
		for l := 0; l < lanes; l++ {
			if f64 {
				out.SetF64(l, args[0].AsFloat())
			} else {
				out.SetF32(l, float32(args[0].AsFloat()))
			}
		}
		return vm.VecValue(out), nil
	}

	if fn64, fn32, ok := laneArith(stemName); ok {
		var out vm.Vec
		switch arityOf(stemName) {
		case 1:
			for l := 0; l < lanes; l++ {
				if f64 {
					out.SetF64(l, fn64(args[0].V.F64(l), 0, 0))
				} else {
					out.SetF32(l, fn32(args[0].V.F32(l), 0, 0))
				}
			}
		case 3:
			for l := 0; l < lanes; l++ {
				if f64 {
					out.SetF64(l, fn64(args[0].V.F64(l), args[1].V.F64(l), args[2].V.F64(l)))
				} else {
					out.SetF32(l, fn32(args[0].V.F32(l), args[1].V.F32(l), args[2].V.F32(l)))
				}
			}
		default:
			for l := 0; l < lanes; l++ {
				if f64 {
					out.SetF64(l, fn64(args[0].V.F64(l), args[1].V.F64(l), 0))
				} else {
					out.SetF32(l, fn32(args[0].V.F32(l), args[1].V.F32(l), 0))
				}
			}
		}
		return vm.VecValue(out), nil
	}

	if fb, ok := laneBitwise(stemName); ok {
		// Bitwise ops work on 32/64-bit lanes; byte-wise application is
		// equivalent and matches the vm's byte loop bit for bit.
		var out vm.Vec
		a, b := args[0].V, args[1].V
		for l := 0; l < width/8; l++ {
			out.SetU8(l, fb(a.U8(l), b.U8(l)))
		}
		return vm.VecValue(out), nil
	}
	return vm.Value{}, fmt.Errorf("oracle has no semantic for %s", name)
}

func splitIntrinsic(name string) (width int, rest string) {
	switch {
	case strings.HasPrefix(name, "_mm256_"):
		return 256, name[len("_mm256_"):]
	case strings.HasPrefix(name, "_mm_"):
		return 128, name[len("_mm_"):]
	default:
		return 0, ""
	}
}

// fma32 is the f32 fused multiply-add rounded once, by round-to-odd:
// the f64 sum of the exact product and c is truncated toward zero and,
// when inexact, given an odd last bit; f64's 53 bits exceed f32's 24+2,
// so narrowing that value rounds exactly as the exact sum would. It is
// written apart from the vm's, which rounds to odd only where narrowing
// can double-round.
func fma32(a, b, c float32) float32 {
	p := float64(float64(a) * float64(b)) // exact: 24+24 bits
	r := math.FMA(float64(a), float64(b), float64(c))
	if math.IsInf(r, 0) || math.IsNaN(r) {
		return float32(r)
	}
	// Fast2Sum error of r = p + c, ordered by magnitude: exact.
	x, y := p, float64(c)
	if math.Abs(x) < math.Abs(y) {
		x, y = y, x
	}
	e := y - (r - x)
	if e == 0 {
		return float32(r)
	}
	t := r
	if (e > 0) != (r > 0) {
		t = math.Nextafter(r, 0) // r was rounded away from zero
	}
	return float32(math.Float64frombits(math.Float64bits(t) | 1))
}

// laneArith returns the per-lane semantic of an arithmetic stem, in
// both precisions. Min and max follow Intel's operation text, MIN(a, b)
// = (a < b ? a : b) and MAX(a, b) = (a > b ? a : b), so a NaN or a tie
// gives b; f64 FMA is math.FMA and f32 FMA rounds once (fma32).
func laneArith(stemName string) (func(a, b, c float64) float64, func(a, b, c float32) float32, bool) {
	switch stemName {
	case "add":
		return func(a, b, _ float64) float64 { return a + b },
			func(a, b, _ float32) float32 { return a + b }, true
	case "sub":
		return func(a, b, _ float64) float64 { return a - b },
			func(a, b, _ float32) float32 { return a - b }, true
	case "mul":
		return func(a, b, _ float64) float64 { return a * b },
			func(a, b, _ float32) float32 { return a * b }, true
	case "div":
		return func(a, b, _ float64) float64 { return a / b },
			func(a, b, _ float32) float32 { return a / b }, true
	case "min":
		return func(a, b, _ float64) float64 {
				if a < b {
					return a
				}
				return b
			},
			func(a, b, _ float32) float32 {
				if a < b {
					return a
				}
				return b
			}, true
	case "max":
		return func(a, b, _ float64) float64 {
				if a > b {
					return a
				}
				return b
			},
			func(a, b, _ float32) float32 {
				if a > b {
					return a
				}
				return b
			}, true
	case "sqrt":
		return func(a, _, _ float64) float64 { return math.Sqrt(a) },
			func(a, _, _ float32) float32 { return float32(math.Sqrt(float64(a))) }, true
	case "fmadd":
		return func(a, b, c float64) float64 { return math.FMA(a, b, c) },
			func(a, b, c float32) float32 { return fma32(a, b, c) }, true
	case "fmsub":
		return func(a, b, c float64) float64 { return math.FMA(a, b, -c) },
			func(a, b, c float32) float32 { return fma32(a, b, -c) }, true
	case "fnmadd":
		return func(a, b, c float64) float64 { return math.FMA(-a, b, c) },
			func(a, b, c float32) float32 { return fma32(-a, b, c) }, true
	case "fnmsub":
		return func(a, b, c float64) float64 { return math.FMA(-a, b, -c) },
			func(a, b, c float32) float32 { return fma32(-a, b, -c) }, true
	}
	return nil, nil, false
}

func laneBitwise(stemName string) (func(x, y byte) byte, bool) {
	switch stemName {
	case "and":
		return func(x, y byte) byte { return x & y }, true
	case "or":
		return func(x, y byte) byte { return x | y }, true
	case "xor":
		return func(x, y byte) byte { return x ^ y }, true
	case "andnot":
		return func(x, y byte) byte { return ^x & y }, true
	}
	return nil, false
}
