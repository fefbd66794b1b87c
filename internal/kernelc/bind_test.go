package kernelc

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

// laneProgram is a one-intrinsic program built to check a lane binding,
// with the Run arguments and the equivalent vm.Machine.Call arguments.
type laneProgram struct {
	f        *ir.Func
	run      []vm.Value
	call     []vm.Value
	mem      *vm.Buffer // the pointer operand's buffer, if any, as Run sees it
	callMem  *vm.Buffer // its copy, as Call sees it
	fusedOps int        // the producers compilation must fuse
}

// The operand values a case draws from: immediates that set and clear
// selector bits, including a shift count past a 16-bit lane; integers
// that truncate; floats a literal cannot spell; and a pointer mode:
// in bounds, one past the end, or not a pointer.
var (
	bindImms   = []int{0, 1, 0x1B, 0x83, 16}
	bindInts   = []int64{-129, 1 << 40, 7}
	bindFloats = []float64{math.Copysign(0, -1), math.Float64frombits(0x7FF8000000000123), 1.5}
)

const (
	ptrInBounds = iota
	ptrPastEnd
	ptrNil
	ptrModes
)

// buildLaneProgram stages name applied to operands that are Run
// arguments, except operand produced, which a node computes right
// before the call (so that compilation fuses it), and, for a pointer
// produced with chain set, through an index add fused into the pointer
// add. Variant v picks the operand values; in variant 0 a vector
// argument is never written (a Value with no register).
func buildLaneProgram(name string, l *vm.Lane, produced int, chain bool, v int) *laneProgram {
	f := ir.NewFunc(name)
	g := f.G
	lp := &laneProgram{f: f}
	param := func(t ir.Type, val vm.Value) ir.Sym {
		s := g.Fresh(t)
		f.Params = append(f.Params, s)
		lp.run = append(lp.run, val)
		return s
	}
	rng := vm.NewXorshift(uint64(len(name)*31 + v))
	var args []ir.Exp
	var eff ir.Effect
	for j, kind := range l.Operands() {
		prod := j == produced
		switch kind {
		case 'v':
			var b [64]byte
			for i := range b {
				b[i] = byte(rng.Next32())
			}
			val := vm.VecValue(vm.VecFromBytes(b[:]))
			if v == 0 && !prod {
				val = vm.Value{Kind: ir.KindVec}
			}
			lp.call = append(lp.call, val)
			if !prod {
				args = append(args, param(ir.VecType(isa.M512), val))
				continue
			}
			buf := vm.PinU8(b[:])
			p := param(ir.PtrType(isa.PrimU8), vm.PtrValue(buf, 0))
			args = append(args, g.Emit(&ir.Def{Op: "_mm512_loadu_si512", Typ: ir.VecType(isa.M512),
				Args: []ir.Exp{p}, Effect: ir.ReadEffect(p)}))
			lp.fusedOps++
		case 'i', 'n', 'f':
			var val vm.Value
			var c ir.Const
			t := ir.TI32
			switch kind {
			case 'i':
				x := bindImms[v%len(bindImms)]
				val, c = vm.IntValue(x), ir.ConstInt(x)
			case 'n':
				x := bindInts[v%len(bindInts)]
				val, c, t = vm.Value{Kind: ir.KindI64, I: x}, ir.ConstI64(x), ir.TI64
			case 'f':
				x := bindFloats[v%len(bindFloats)]
				val, c, t = vm.F64Value(x), ir.ConstF64(x), ir.TF64
			}
			lp.call = append(lp.call, val)
			switch {
			case prod:
				// x - 0 is x, bit for bit, and -0 and NaN payloads too.
				x, zero := param(t, val), param(t, vm.Value{Kind: t.Kind})
				args = append(args, g.Sub(x, zero))
				lp.fusedOps++
			case kind == 'i' || v%2 == 1:
				args = append(args, c)
			default:
				args = append(args, param(t, val))
			}
		case 'p':
			buf := vm.NewBuffer(isa.PrimF32, 32)
			for i := range buf.Data {
				buf.Data[i] = byte(rng.Next32())
			}
			lp.mem, lp.callMem = buf, &vm.Buffer{Prim: buf.Prim, Data: bytes.Clone(buf.Data), Base: buf.Base}
			off := 3
			mode := v % ptrModes
			if mode == ptrPastEnd {
				off = buf.Len()
			}
			ptr, callPtr := vm.PtrValue(buf, 0), vm.PtrValue(lp.callMem, off)
			if mode == ptrNil {
				ptr, callPtr = vm.Value{Kind: ir.KindPtr}, vm.Value{Kind: ir.KindPtr, Off: off}
			}
			lp.call = append(lp.call, callPtr)
			p := param(ir.PtrType(isa.PrimF32), ptr)
			g.MarkMutable(p)
			eff = ir.ReadEffect(p)
			if l.Result() == 0 {
				eff = ir.WriteEffect(p)
			}
			if !prod {
				lp.run[len(lp.run)-1].Off = off
				args = append(args, p)
				continue
			}
			var idx ir.Exp = param(ir.TI32, vm.IntValue(off))
			if chain {
				idx = g.Add(idx, param(ir.TI32, vm.IntValue(0)))
				lp.fusedOps++
			}
			args = append(args, g.PtrAdd(p, idx))
			lp.fusedOps++
		}
	}
	switch l.Result() {
	case 'v':
		t := ir.VecType(map[int]isa.VecKind{64: isa.M64, 128: isa.M128, 256: isa.M256, 512: isa.M512}[l.Bits])
		if _, cast := l.Kernel.(vm.Cast); cast {
			t = ir.VecType(isa.M128)
		}
		g.Root().Result = g.Emit(&ir.Def{Op: name, Typ: t, Args: args, Effect: eff})
	case 'f':
		g.Root().Result = g.Emit(&ir.Def{Op: name, Typ: ir.TF32, Args: args, Effect: eff})
	default:
		g.EmitStmt(&ir.Def{Op: name, Typ: ir.TVoid, Args: args, Effect: eff})
	}
	return lp
}

// TestLaneBindingMatchesCall: for every intrinsic with a lane binding,
// the bound call kernelc compiles gives what vm.Machine.Call gives, bit
// for bit, in result, memory and error text. Each operand is taken from
// a register, from a constant, and from a producer that is fused into
// the call and, compiled without fusion, not; a vector operand that was
// never written reads as zero; a pointer is in bounds, past the end
// and not a pointer, and reaches a load or store directly, through a
// fused pointer add, and through a pointer add with a fused index.
func TestLaneBindingMatchesCall(t *testing.T) {
	bound := 0
	for _, name := range vm.ImplementedNames() {
		in, _ := vm.Lookup(name)
		if in.Lane == nil {
			continue
		}
		bound++
		kinds := in.Lane.Operands()
		variants := 2
		switch {
		case strings.ContainsAny(kinds, "i"):
			variants = len(bindImms)
		case strings.ContainsAny(kinds, "nf"):
			variants = 2 * len(bindInts)
		case strings.ContainsAny(kinds, "p"):
			variants = ptrModes
		}
		for produced := -1; produced < len(kinds); produced++ {
			chains := []bool{false}
			if produced >= 0 && kinds[produced] == 'p' {
				chains = append(chains, true)
			}
			for _, chain := range chains {
				for v := 0; v < variants; v++ {
					for _, fuse := range []bool{true, false} {
						what := fmt.Sprintf("%s produced=%d chain=%v variant=%d fuse=%v", name, produced, chain, v, fuse)
						checkLaneProgram(t, what, name, buildLaneProgram(name, in.Lane, produced, chain, v), fuse)
					}
				}
			}
		}
	}
	if bound == 0 {
		t.Fatal("no intrinsic has a lane binding")
	}
}

func checkLaneProgram(t *testing.T, what, name string, lp *laneProgram, fuse bool) {
	t.Helper()
	p, err := compile(lp.f, TierOpt, fuse)
	if err != nil {
		t.Fatalf("%s: compile: %v", what, err)
	}
	if want := lp.fusedOps; !fuse {
		if p.FusedOps() != 0 {
			t.Fatalf("%s: %d producers fused, want none", what, p.FusedOps())
		}
	} else if p.FusedOps() != want {
		t.Fatalf("%s: %d producers fused, want %d", what, p.FusedOps(), want)
	}
	got, runErr := p.Run(haswell(), lp.run...)
	want, callErr := haswell().Call(name, lp.call...)
	switch {
	case (runErr == nil) != (callErr == nil):
		t.Fatalf("%s: Run error %v, Call error %v", what, runErr, callErr)
	case callErr != nil:
		if w := fmt.Sprintf("kernelc: %s: %s: %v", name, name, callErr); runErr.Error() != w {
			t.Fatalf("%s: Run error %q, want %q", what, runErr, w)
		}
	case !got.Equal(want):
		t.Fatalf("%s: Run gives %+v (%v), Call %+v (%v)", what, got, got.V, want, want.V)
	}
	if lp.mem != nil && !bytes.Equal(lp.mem.Data, lp.callMem.Data) {
		t.Fatalf("%s: memory differs:\nRun:  %x\nCall: %x", what, lp.mem.Data, lp.callMem.Data)
	}
}
