// Package loopdep decides, from the staged IR alone, whether a counted
// loop's iterations can execute in parallel. It is the static half of
// the parallel execution tier: irverify runs it to explain (per loop)
// why iterations will or will not shard, and kernelc runs it to decide
// which loops get a parallel driver.
//
// The analysis is deliberately schedule-independent — it walks the raw
// block nodes, not a lowering schedule — so the verifier and the kernel
// compiler reach the same verdict from the same graph. A loop
// parallelizes when
//
//   - every memory write in the body is a "probed access": the written
//     address is affine in the loop's own induction variable (the degree
//     lattice of degree.go, which kernelc's strength-reduction pass also
//     reads), and its footprint is the one the vm states (vm.AccessOf),
//     so the runtime can evaluate the address chain at three iterations
//     and prove the per-iteration store windows disjoint;
//   - every read is a probed access, or falls back to a "free read"
//     whose root buffer the runtime checks for distinctness from all
//     written buffers (non-affine gathers, nested read-only blocks);
//   - the only value carried between iterations is the loop
//     accumulator, and the accumulator update is a whitelisted exact
//     reduction (integer scalar add/and/or/xor/min/max, or a lanewise
//     integer vector add), which the runtime re-associates into one
//     ordered partial per chunk without changing a single result bit.
//
// Anything else — an unknown store intrinsic, a write inside a nested
// block, a global effect, a floating-point accumulator — produces a
// serial verdict with a human-readable reason. The verdict is advisory:
// the parallel driver still re-checks the address arithmetic at run
// time (probing defeats wraparound and parameter aliasing) and falls
// back to the serial driver when the probe disagrees.
package loopdep

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Access is one memory access whose address is affine in the loop's
// induction variable. The runtime probe evaluates Ptr (and Idx, for
// element accesses) at three iterations to recover the concrete byte
// interval each iteration touches.
type Access struct {
	// Node is the accessing node in the loop body.
	Node *ir.Node
	// Ptr is the pointer operand (always a symbol: a parameter or a
	// ptradd chain).
	Ptr ir.Sym
	// Idx is the element-index expression for aload/astore accesses;
	// nil for intrinsic accesses, which displace the pointer directly.
	Idx ir.Exp
	// Bytes and Scale are the intrinsic's footprint (vm.Access): Bytes
	// bytes at byte offset off·Scale. Both are 0 for aload/astore, and a
	// zero stands for the buffer's element size, only known at run time.
	Bytes, Scale int
	// Write reports whether the access stores.
	Write bool
}

// Reduction describes a recognized loop-carried accumulator update.
type Reduction struct {
	// Op is the reduction operation: an ir scalar op name (add, and,
	// or, xor, min, max) or a lanewise integer vector intrinsic name
	// (e.g. _mm256_add_epi32).
	Op string
	// Vec reports whether the reduction runs on a vector register.
	Vec bool
	// Typ is the accumulator's staged type.
	Typ ir.Type
}

// Report is the analysis verdict for one loop.
type Report struct {
	// OK reports whether the loop's iterations are provably
	// independent up to the runtime probe.
	OK bool
	// Reason explains a serial verdict (empty when OK).
	Reason string
	// Probes lists the affine accesses the runtime must check.
	Probes []Access
	// FreeRoots lists root buffer symbols read at unanalyzed addresses;
	// the runtime must verify none aliases a written buffer.
	FreeRoots []ir.Sym
	// Reduce is the recognized accumulator reduction, when the loop is
	// a ForAcc (nil for plain loops and after-fold-free accumulators).
	Reduce *Reduction
}

// Writes counts the probed accesses that store.
func (r *Report) Writes() int {
	n := 0
	for _, a := range r.Probes {
		if a.Write {
			n++
		}
	}
	return n
}

func serial(format string, args ...any) Report {
	return Report{Reason: fmt.Sprintf(format, args...)}
}

// Analyze inspects one staged loop node (ir.OpLoop) of f and reports
// whether its iterations can shard.
func Analyze(f *ir.Func, loop *ir.Node) Report {
	d := loop.Def
	if d.Op != ir.OpLoop || len(d.Blocks) != 1 {
		return serial("not a counted loop")
	}
	body := d.Blocks[0]
	if len(body.Params) == 0 {
		return serial("loop body has no induction variable")
	}
	iv := body.Params[0]

	rep := Report{OK: true}
	if len(d.Args) == 4 {
		// Loop-carried accumulator: only whitelisted exact reductions
		// survive re-association into per-chunk partials.
		red, reason := reduction(f, body)
		if red == nil {
			return serial("%s", reason)
		}
		rep.Reduce = red
	}

	// Degree of every body node in the induction variable (NodeDegree):
	// 0 invariant, 1 affine, DegVariant otherwise.
	bodyDefined := make(map[int]bool, len(body.Nodes)+len(body.Params))
	for _, p := range body.Params {
		bodyDefined[p.ID] = true
	}
	for _, n := range body.Nodes {
		bodyDefined[n.Sym.ID] = true
	}
	deg := make(map[int]int, len(body.Nodes))

	for _, n := range body.Nodes {
		nd := n.Def
		if nd.Op == ir.OpComment || nd.Op == ir.OpParam {
			continue
		}
		deg[n.Sym.ID] = NodeDegree(nd, iv, bodyDefined, deg)
		e := nd.Effect
		switch {
		case e.Kind == ir.Global:
			return serial("node x%d (%s) has a global side effect", n.Sym.ID, nd.Op)
		case len(nd.Blocks) > 0:
			// Nested loop or branch: writes anywhere inside force a
			// serial verdict (iteration-local scratch would need a
			// per-iteration footprint proof we do not attempt); pure
			// reads become free-read roots.
			if len(e.Writes) > 0 {
				return serial("nested block in x%d (%s) writes memory", n.Sym.ID, nd.Op)
			}
			rep.FreeRoots = append(rep.FreeRoots, e.Reads...)
		case e.IsPure():
			// No memory traffic.
		default:
			acc, free, reason := classifyAccess(f, n, iv, bodyDefined, deg)
			switch {
			case acc != nil:
				rep.Probes = append(rep.Probes, *acc)
			case free != nil:
				rep.FreeRoots = append(rep.FreeRoots, free...)
			default:
				return serial("%s", reason)
			}
		}
	}
	rep.FreeRoots = dedupSyms(rep.FreeRoots)
	return rep
}

// classifyAccess decides how one effectful straight-line node is
// handled: as a probed affine access, as free reads (root distinctness
// checked at run time), or not at all (reason explains the serial
// verdict). Writes must probe; reads may fall back.
func classifyAccess(f *ir.Func, n *ir.Node, iv ir.Sym, bodyDefined map[int]bool, deg map[int]int) (*Access, []ir.Sym, string) {
	d := n.Def
	argDeg := func(e ir.Exp) int { return ExpDegree(e, iv, bodyDefined, deg) }
	freeReads := func() ([]ir.Sym, string) {
		if len(d.Effect.Writes) > 0 {
			return nil, ""
		}
		return append([]ir.Sym(nil), d.Effect.Reads...), ""
	}

	switch d.Op {
	case ir.OpALoad, ir.OpAStore:
		ptr, ok := d.Args[0].(ir.Sym)
		if !ok {
			return nil, nil, fmt.Sprintf("x%d (%s) has a non-symbol pointer", n.Sym.ID, d.Op)
		}
		affine := ptrDegree(f, ptr, iv, bodyDefined, deg) <= 1 && argDeg(d.Args[1]) <= 1
		if d.Op == ir.OpALoad {
			if affine {
				return &Access{Node: n, Ptr: ptr, Idx: d.Args[1]}, nil, ""
			}
			if fr, _ := freeReads(); fr != nil {
				return nil, fr, ""
			}
			return nil, nil, fmt.Sprintf("x%d (aload) reads at a non-affine address with no root", n.Sym.ID)
		}
		if !affine {
			return nil, nil, fmt.Sprintf("x%d (astore) writes at a non-affine address", n.Sym.ID)
		}
		return &Access{Node: n, Ptr: ptr, Idx: d.Args[1], Write: true}, nil, ""
	}

	// Intrinsic with the footprint the vm states for it (vm.AccessOf):
	// the pointer is argument 0, and the node's effect says whether it
	// stores. Bytes zero (prefetch) dereferences nothing.
	if fp, ok := vm.AccessOf(d.Op); ok && fp.Bytes > 0 {
		write := len(d.Effect.Writes) > 0
		var ptr ir.Sym
		isPtr := false
		if len(d.Args) > 0 {
			ptr, isPtr = d.Args[0].(ir.Sym)
		}
		if !isPtr || ptr.Typ.Kind != ir.KindPtr {
			return nil, nil, fmt.Sprintf("x%d (%s) has no pointer operand", n.Sym.ID, d.Op)
		}
		if ptrDegree(f, ptr, iv, bodyDefined, deg) <= 1 {
			return &Access{Node: n, Ptr: ptr, Bytes: fp.Bytes, Scale: fp.Scale, Write: write}, nil, ""
		}
		if write {
			return nil, nil, fmt.Sprintf("x%d (%s) stores at a non-affine address", n.Sym.ID, d.Op)
		}
		if fr, _ := freeReads(); fr != nil {
			return nil, fr, ""
		}
		return nil, nil, fmt.Sprintf("x%d (%s) reads at a non-affine address with no root", n.Sym.ID, d.Op)
	}
	if len(d.Effect.Writes) > 0 {
		// Unknown store footprint (masked stores, scatters, rdrand-style
		// destination writes): cannot prove disjointness.
		return nil, nil, fmt.Sprintf("x%d (%s) writes memory with an unknown footprint", n.Sym.ID, d.Op)
	}
	if fr, _ := freeReads(); fr != nil {
		return nil, fr, ""
	}
	return nil, nil, fmt.Sprintf("x%d (%s) has an unanalyzable effect", n.Sym.ID, d.Op)
}

// ptrDegree chases a pointer symbol through body-defined ptradd nodes,
// returning the maximum degree of any displacement step (DegVariant on
// a non-ptradd body definition).
func ptrDegree(f *ir.Func, ptr ir.Sym, iv ir.Sym, bodyDefined map[int]bool, deg map[int]int) int {
	out := 0
	s := ptr
	for hops := 0; hops < 64; hops++ {
		if !bodyDefined[s.ID] {
			return out // rooted outside the loop: invariant base
		}
		d, ok := f.G.Def(s)
		if !ok || d.Op != ir.OpPtrAdd {
			return DegVariant
		}
		if dg := ExpDegree(d.Args[1], iv, bodyDefined, deg); dg > out {
			out = dg
		}
		base, ok := d.Args[0].(ir.Sym)
		if !ok {
			return DegVariant
		}
		s = base
	}
	return DegVariant
}

func dedupSyms(ss []ir.Sym) []ir.Sym {
	if len(ss) < 2 {
		return ss
	}
	seen := make(map[int]bool, len(ss))
	out := ss[:0]
	for _, s := range ss {
		if !seen[s.ID] {
			seen[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}
