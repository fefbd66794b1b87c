package kernelc

// The loop-nest optimizer: a pre-lowering pass over each ForExp body
// that classifies every kept node by its degree in the loop's induction
// variable. The degree lattice is loopdep's (loopdep.NodeDegree), the
// one the parallel tier's address probe reads; this pass adds two rules
// on top of it.
//
//   - degree 0 (loop-invariant): the node reads nothing defined inside
//     the body, so it is hoisted — executed once at loop entry instead
//     of once per iteration. The lattice admits only pure, block-free
//     scalar ops from a non-faulting whitelist, so running them under
//     the `start < end` guard is observationally identical to running
//     them every iteration.
//   - degree 1 (affine in the iv, i32 only): the classic `base + i*stride`
//     address chain. It is strength-reduced: evaluated at `start` and
//     `start + stride` once at entry, the difference is the exact
//     per-iteration step — i32 arithmetic (add/sub/mul/shl/neg composed
//     with truncation) is linear over Z/2^32, and int32(x+y) ==
//     int32(int32(x)+y), so one masked add per iteration reproduces the
//     full chain bit-for-bit. Other widths stay in the body: the
//     incremental update wraps at 32 bits.
//   - a pointer add is never claimed, whatever its degree: the
//     incremental update steps an integer register, and the pointer
//     add advances its destination's offset in the body.
//   - anything else stays in the body.
//
// Crucially the pass never changes the dynamic op-count stream: claimed
// nodes stay in the body's block, whose static vector (StaticCounts)
// counts them once per iteration, so the analytical cost model — and
// every figure derived from it — is unaffected.

import (
	"repro/internal/ir"
	"repro/internal/loopdep"
)

// loopPlan is one loop's optimisation schedule, in body schedule order.
type loopPlan struct {
	hoisted []*ir.Node // loop-invariant: run once at entry
	derived []*ir.Node // affine i32 in the iv: run incrementally
}

// planLoop classifies the loop body's kept nodes. The carried
// accumulator (when present) is a body parameter and therefore variant,
// so accumulator chains are never touched. A node the pass does not
// claim is recorded as variant, so nothing that reads it is claimed
// either.
func (c *compiler) planLoop(body *ir.Block) loopPlan {
	kept := c.sched.Keep[body]
	if len(kept) == 0 {
		return loopPlan{}
	}
	iv := body.Params[0]
	bodyDefined := make(map[int]bool, len(kept)+len(body.Params))
	for _, p := range body.Params {
		bodyDefined[p.ID] = true
	}
	for _, n := range kept {
		bodyDefined[n.Sym.ID] = true
	}
	deg := make(map[int]int, len(kept))
	var plan loopPlan
	for _, n := range kept {
		dg := loopdep.NodeDegree(n.Def, iv, bodyDefined, deg)
		if n.Def.Op == ir.OpPtrAdd || (dg == 1 && n.Def.Typ.Kind != ir.KindI32) {
			dg = loopdep.DegVariant
		}
		deg[n.Sym.ID] = dg
		switch dg {
		case 0:
			plan.hoisted = append(plan.hoisted, n)
		case 1:
			plan.derived = append(plan.derived, n)
		}
	}
	c.hoisted += len(plan.hoisted)
	c.strength += len(plan.derived)
	return plan
}

// lowerPlan compiles the claimed nodes into standalone ops for the loop
// driver. They stay in the body's block, so the body's static count
// vector still counts them once per iteration. derSlots are the derived
// nodes' register slots, in schedule order, for the incremental update.
func (c *compiler) lowerPlan(plan loopPlan) (hoistedOps, derivedOps []op, derSlots []int, err error) {
	for _, n := range plan.hoisted {
		vn, cerr := c.compileSimple(n, nil)
		if cerr != nil {
			return nil, nil, nil, cerr
		}
		hoistedOps = append(hoistedOps, vn.asOp())
	}
	for _, n := range plan.derived {
		vn, cerr := c.compileSimple(n, nil)
		if cerr != nil {
			return nil, nil, nil, cerr
		}
		derivedOps = append(derivedOps, vn.asOp())
		derSlots = append(derSlots, c.slot(n.Sym))
	}
	return hoistedOps, derivedOps, derSlots, nil
}
