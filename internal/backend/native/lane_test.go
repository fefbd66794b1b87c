package native

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/vm"
)

// laneDecls parses a Go source and returns its top-level funcs, its
// types, and the methods by receiver type name.
func laneDecls(t *testing.T, name, src string) (funcs, typs map[string]bool, methods map[string]map[string]bool) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), name, src, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	funcs, typs, methods = map[string]bool{}, map[string]bool{}, map[string]map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				funcs[d.Name.Name] = true
				continue
			}
			rt := d.Recv.List[0].Type
			if st, ok := rt.(*ast.StarExpr); ok {
				rt = st.X
			}
			recv := rt.(*ast.Ident).Name
			if methods[recv] == nil {
				methods[recv] = map[string]bool{}
			}
			methods[recv][d.Name.Name] = true
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					typs[ts.Name.Name] = true
				}
			}
		}
	}
	return funcs, typs, methods
}

// TestOneLaneSemantic: the lane semantics have one implementation. The
// plugin's own prelude defines nothing the lane file defines, every
// kernel the emitter table calls is a func of the lane file, every
// intrinsic it lowers is one the vm binds to that kernel at that width
// (vm.Lane), and the conformance
// oracle reads vm registers only through Vec's lane accessors, so it
// stays independent of the kernels it checks.
func TestOneLaneSemantic(t *testing.T) {
	if !strings.HasPrefix(laneSource, "package main\n") {
		t.Fatal("laneSource does not declare package main")
	}
	laneFuncs, laneTypes, laneMethods := laneDecls(t, "lane.go", vm.LaneSource)
	preFuncs, preTypes, preMethods := laneDecls(t, "prelude", "package main\n"+prelude)
	for name := range preFuncs {
		if laneFuncs[name] || laneTypes[name] {
			t.Errorf("prelude redefines %s, which the lane file defines", name)
		}
	}
	for name := range preTypes {
		if laneFuncs[name] || laneTypes[name] {
			t.Errorf("prelude redefines type %s, which the lane file defines", name)
		}
	}
	if len(preMethods) != 0 {
		t.Errorf("prelude declares methods %v; lane accessors belong to the lane file", preMethods)
	}

	names := make([]string, 0, len(lowerings))
	for name := range lowerings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lw := lowerings[name]
		if lw.kernel != "" && !laneFuncs[lw.kernel] {
			t.Errorf("%s lowers to %s, which is not a func of the lane file", name, lw.kernel)
		}
		if !vm.Implemented(name) {
			t.Errorf("%s is lowered but the vm does not implement it", name)
		}
		// The table restates the vm's binding record of the intrinsic:
		// the same kernel at the same width, on the same operand kinds.
		in, _ := vm.Lookup(name)
		l := in.Lane
		if l == nil {
			t.Errorf("%s is lowered but has no lane binding in the vm", name)
			continue
		}
		kernel := ""
		if _, cast := l.Kernel.(vm.Cast); !cast {
			kernel = runtime.FuncForPC(reflect.ValueOf(l.Kernel).Pointer()).Name()
			kernel = kernel[strings.LastIndexByte(kernel, '.')+1:]
		}
		if kernel != lw.kernel || l.Bits != lw.bits || l.Operands() != lw.ops || l.Result() != lw.res {
			t.Errorf("%s lowers to %s(%d, %q) -> %q, but the vm binds %s(%d, %q) -> %q",
				name, lw.kernel, lw.bits, lw.ops, lw.res, kernel, l.Bits, l.Operands(), l.Result())
		}
	}

	// The oracle may read and write lanes (Vec's accessors) but call
	// no lane kernel or helper, nor any other method the lane file
	// gives Vec.
	accessor := regexp.MustCompile(`^(Set)?[FIU](8|16|32|64)$`)
	src, err := parser.ParseFile(token.NewFileSet(), "../../conform/oracle.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(src, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "vm" {
			if laneFuncs[name] {
				t.Errorf("conform/oracle.go calls vm.%s, a lane-file function", name)
			}
			return true
		}
		if laneMethods["Vec"][name] && !accessor.MatchString(name) {
			t.Errorf("conform/oracle.go calls Vec.%s, a lane-file method that is not a lane accessor", name)
		}
		return true
	})
}

// laneEdges32, laneEdges64 and the integer patterns below are the edge
// inputs of TestNativeLaneOpsMatchVM: NaN payloads (quiet and
// signalling, both signs), signed zeros, denormals, infinities and
// extremes.
var (
	laneEdges32 = []uint32{
		0x7FC00001, 0xFFA00005, 0x80000000, 0x00000000, 0x00000001,
		0x807FFFFF, 0x7F800000, 0xFF800000, 0x3F800000, 0xBF800001,
		0x7F7FFFFF, 0x00800000, 0x4B000001, 0x3EAAAAAB, 0xC2F60000,
	}
	laneEdges64 = []uint64{
		0x7FF8000000000123, 0xFFF0000000000ABC, 0x8000000000000000, 0,
		1, 0x800FFFFFFFFFFFFF, 0x7FF0000000000000, 0x3FF0000000000001,
		0x7FEFFFFFFFFFFFFF, 0xC05EC00000000000, 0x0010000000000000,
	}
	// laneImms are immediates that set and clear the selector bits
	// the shuffles, permutes and extracts read, plus a shift count
	// past the lane width.
	laneImms = []int{1, 0x1B, 0x83, 16}
	// laneConstsF and laneConstsN are scalar constants: negative zero
	// and NaN payloads, which a Go literal cannot spell, and integers
	// that truncate.
	laneConstsF = []float64{math.Copysign(0, -1), math.Float64frombits(0x7FF8000000000123),
		math.Float64frombits(0xFFF4000000000001)}
	laneConstsN = []int64{-129, 1 << 40}
	// fma32Boundary is the lane of TestNativeFMA32RoundsOnce: f64
	// rounding then f32 rounding is one ulp off the single rounding.
	fma32Boundary = [3]uint32{0x2c000030, 0x612c0000, 0x30612c00}
)

// laneInputs lays out the input buffer: three data sets of three
// 64-byte slots, one slot per operand position. Set 0 holds f32 edge
// lanes (lane 0 of its three slots is the FMA boundary triple), set 1
// f64 edge lanes, set 2 integer bytes: int8/int16 saturation and
// wrap-around pairs, half-precision specials, and pshufb control bytes
// with the high bit set.
func laneInputs() []byte {
	const slot = 64
	in := make([]byte, 9*slot)
	le := func(off int, bits uint64, n int) {
		for k := 0; k < n; k++ {
			in[off+k] = byte(bits >> (8 * k))
		}
	}
	for j := 0; j < 3; j++ {
		for l := 0; l < 16; l++ {
			le(j*slot+4*l, uint64(laneEdges32[(l+5*j)%len(laneEdges32)]), 4)
			if l < 8 {
				le((3+j)*slot+8*l, laneEdges64[(l+3*j)%len(laneEdges64)], 8)
			}
		}
		le(j*slot, uint64(fma32Boundary[j]), 4)
	}
	ints := in[6*slot:]
	cycles := [3][]byte{
		{0x80, 0x7F, 0xFF, 0x00, 0x01, 0xFE, 0x81, 0x40, 0x3C, 0x7C, 0xFC},
		{0x8F, 0x03, 0x80, 0x1F, 0x0A, 0xFF, 0x00, 0x7E, 0x85},
		{0x00, 0x80, 0xFF, 0x7F, 0x01, 0x10},
	}
	for j, c := range cycles {
		for k := 0; k < slot; k++ {
			ints[j*slot+k] = c[(k+j)%len(c)]
		}
	}
	copy(ints[0:8], []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x80, 0x00, 0x80})
	copy(ints[slot:slot+8], []byte{0x7F, 0x7F, 0x80, 0x80, 0x00, 0x80, 0x00, 0x80})
	for l, h := range []uint16{0x7C00, 0x7E01, 0x0001, 0x8000, 0x3C00, 0xFC00, 0x03FF, 0x7BFF} {
		le(8+2*l, uint64(h), 2)
		le(6*slot+8+2*l, uint64(h), 2)
	}
	return in
}

// TestNativeLaneOpsMatchVM applies every intrinsic the native emitter
// lowers to edge inputs and stores each result, in one kernel and so
// one plugin build, and requires the plugin and the vm to agree bit for
// bit on memory, result and op counts.
func TestNativeLaneOpsMatchVM(t *testing.T) {
	be := New()
	if err := be.Available(); err != nil {
		t.Skipf("native backend unavailable on this host: %v", err)
	}
	arch := isa.Haswell
	k := dsl.NewKernel("laneops", arch.Features)
	in := k.ParamF32Ptr()
	out := dsl.Mutable(k, k.ParamF32Ptr())
	fs, ns := k.ParamF32(), k.ParamInt()
	const slotF32 = 16 // 64-byte slots, in f32 elements
	var slots []string // the application each output slot holds
	at := func(p dsl.PF32, slot, lane int) ir.Exp { return k.Offset(p.E, k.ConstInt(slot*slotF32+lane)) }
	vecType := map[int]ir.Type{128: ir.TM128, 256: ir.TM256, 512: ir.TM512}
	store256 := func(v ir.Exp, slot int) {
		k.Intrinsic("_mm256_storeu_ps", ir.TVoid, nil, k.WriteEff(out.E), at(out, slot, 0), v)
	}

	names := make([]string, 0, len(lowerings))
	for name := range lowerings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lw := lowerings[name]
		// Variant v picks the immediate, and the scalar operand: the
		// parameter, or a constant the generated code must spell
		// bit-exactly.
		variants := 1
		switch {
		case strings.IndexByte(lw.ops, 'i') >= 0:
			variants = len(laneImms)
		case strings.IndexByte(lw.ops, 'f') >= 0:
			variants = 1 + len(laneConstsF)
		case strings.IndexByte(lw.ops, 'n') >= 0:
			variants = 1 + len(laneConstsN)
		}
		for set := 0; set < 3; set++ {
			for v := 0; v < variants; v++ {
				dstSlot := len(slots)
				slots = append(slots, fmt.Sprintf("%s on set %d, variant %d", name, set, v))
				var args []ir.Exp
				for j := 0; j < len(lw.ops); j++ {
					src := 3*set + j
					switch lw.ops[j] {
					case 'v': // all 64 bytes, so a kernel that reads past its width shows
						args = append(args, k.Intrinsic("_mm512_loadu_ps", ir.TM512, nil, k.ReadEff(in.E), at(in, src, 0)))
					case 'i':
						args = append(args, k.ConstInt(laneImms[v]).E)
					case 'n':
						if v == 0 {
							args = append(args, ns.E)
						} else {
							args = append(args, k.ConstI64(laneConstsN[v-1]).E)
						}
					case 'f':
						if v == 0 {
							args = append(args, fs.E)
						} else {
							args = append(args, k.ConstF64(laneConstsF[v-1]).E)
						}
					case 'p':
						if lw.res == 'v' { // a load: read lane 3 onwards
							args = append(args, at(in, src, 3))
						} else { // a store: write the result slot
							args = append(args, at(out, dstSlot, 0))
						}
					}
				}
				switch lw.res {
				case 'v':
					typ := vecType[lw.bits]
					if name == "_mm256_castps256_ps128" || name == "_mm256_extractf128_ps" {
						typ = ir.TM128
					}
					eff := ir.PureEffect
					if strings.IndexByte(lw.ops, 'p') >= 0 {
						eff = k.ReadEff(in.E)
					}
					v := k.Intrinsic(name, typ, nil, eff, args...)
					store256(v, dstSlot)
					if lw.bits == 512 { // the upper lanes, through their sum
						sum := k.Intrinsic("_mm512_reduce_add_ps", ir.TF32, nil, ir.PureEffect, v)
						out.Set(k.ConstInt(dstSlot*slotF32+8), dsl.F32{K: k, E: sum})
					}
				case 'f':
					r := k.Intrinsic(name, ir.TF32, nil, ir.PureEffect, args...)
					out.Set(k.ConstInt(dstSlot*slotF32), dsl.F32{K: k, E: r})
				default:
					k.Intrinsic(name, ir.TVoid, nil, k.WriteEff(out.E), args...)
				}
			}
		}
	}
	if err := Lowerable(k.F); err != nil {
		t.Fatalf("lane-op kernel is not lowerable: %v", err)
	}
	nat, err := be.Compile(k.F)
	if err != nil {
		t.Fatalf("native compile: %v", err)
	}
	interp, err := kernelc.Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	input := laneInputs()
	run := func(ex interface {
		Run(*vm.Machine, ...vm.Value) (vm.Value, error)
	}) ([]byte, vm.Counter) {
		inBuf := vm.NewBuffer(isa.PrimF32, len(input)/4)
		copy(inBuf.Data, input)
		outBuf := vm.NewBuffer(isa.PrimF32, len(slots)*slotF32)
		m := vm.NewMachine(arch)
		args := []vm.Value{vm.PtrValue(inBuf, 0), vm.PtrValue(outBuf, 0),
			vm.F32Value(math.Float32frombits(0x7FC00123)), vm.IntValue(-129)}
		if _, err := ex.Run(m, args...); err != nil {
			t.Fatal(err)
		}
		return outBuf.Data, m.Counts
	}
	memV, cntV := run(interp)
	memN, cntN := run(nat)
	for s, what := range slots {
		lo, hi := s*4*slotF32, (s+1)*4*slotF32
		if !bytes.Equal(memV[lo:hi], memN[lo:hi]) {
			t.Errorf("%s differs:\nvm:     %x\nnative: %x", what, memV[lo:hi], memN[lo:hi])
		}
	}
	if !reflect.DeepEqual(cntV, cntN) {
		t.Errorf("op counts differ:\nvm:     %v\nnative: %v", cntV, cntN)
	}
	for _, name := range names {
		if cntV[name] == 0 {
			t.Errorf("%s was never executed", name)
		}
	}
	t.Logf("%d applications of %d lowered intrinsics agree", len(slots), len(names))
}
