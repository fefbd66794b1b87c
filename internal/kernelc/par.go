package kernelc

// The parallel loop tier. At compile time, buildParPlan asks loopdep
// whether a staged loop's iterations are provably independent and, if
// so, lowers the probe machinery: the pure address chains feeding every
// probed access, register references for the accessed pointers, and the
// exact-reduction fold for carried accumulators. At run time the driver
// evaluates each access's byte offset at three iterations (first,
// second, last), checks linearity — which defeats integer wraparound —
// groups accesses by the concrete *vm.Buffer they hit (which defeats
// parameter aliasing the static analysis cannot see), and proves every
// written buffer's per-iteration windows disjoint. Only then does the
// iteration space shard across worker lanes; any failed check falls
// back to the serial driver, whose behaviour is untouched.
//
// Determinism contract: a successful sharded execution produces the
// same result value, the same memory image, and the same dynamic
// op-counter map as the serial driver, byte for byte. Worker lanes run
// on private machines (fresh counter, fresh RNG, no cache simulator,
// Workers=0 so nested loops stay serial) and count into their own
// frames' count registers, which the parent frame sums after the join;
// reduction partials are folded in ascending chunk order with the same
// scalar/lane arithmetic the body uses. On error the first-erroring
// iteration's error is returned (every chunk runs to its own
// completion, so the lowest erroring chunk is deterministic), but
// sibling chunks may already have stored past the serial error point —
// error-path memory images are the one documented divergence.

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/loopdep"
	"repro/internal/vm"
)

// parAccess is one probed access: register references resolving the
// pointer (and element index) at probe time, plus the static footprint
// loopdep read from the vm: width bytes at byte offset off·scale, where
// a zero width or scale stands for the buffer's element size (always,
// for aload/astore).
type parAccess struct {
	ptr          argRef
	idx          argRef
	hasIdx       bool
	width, scale int
	write        bool
}

// reduceOp folds per-chunk accumulator partials exactly.
type reduceOp struct {
	// fold combines two partials; a vector fold writes its result into
	// dst, which may alias a.
	fold func(m *vm.Machine, a, b vm.Value, dst *vm.Vec) (vm.Value, error)
	// seed produces a chunk's starting accumulator from the loop's
	// init value (the op identity, or init itself for idempotent ops).
	seed func(init vm.Value) vm.Value
}

// parPlan is the compiled parallel schedule of one loop.
type parPlan struct {
	// probeOps re-evaluate the pure body nodes feeding the probed
	// addresses at an arbitrary induction-variable value, in schedule
	// order. They never touch memory and never count ops.
	probeOps  []op
	accesses  []parAccess
	freeRoots []argRef
	reduce    *reduceOp
}

// buildParPlan lowers loopdep's verdict for one loop into runnable
// probe machinery. A nil plan (with nil error) means the loop stays
// serial; errors are compiler bugs and abort compilation.
func (c *compiler) buildParPlan(n *ir.Node, body *ir.Block) (*parPlan, error) {
	rep := loopdep.Analyze(c.f, n)
	if !rep.OK {
		return nil, nil
	}
	kept := c.sched.Keep[body]
	topDef := make(map[int]*ir.Node, len(kept))
	for _, kn := range kept {
		topDef[kn.Sym.ID] = kn
	}
	// mark collects the transitive top-level pure dependencies of the
	// probed address expressions. Anything surprising — an effectful
	// dependency, a CSE'd symbol without a slot — vetoes the plan.
	need := map[int]bool{}
	var mark func(e ir.Exp) bool
	mark = func(e ir.Exp) bool {
		s, ok := e.(ir.Sym)
		if !ok {
			_, isConst := e.(ir.Const)
			return isConst
		}
		kn, isTop := topDef[s.ID]
		if !isTop {
			// Parameter, outer-block value, or the induction variable:
			// live in a register at probe time.
			_, hasSlot := c.slots[s.ID]
			return hasSlot
		}
		if need[s.ID] {
			return true
		}
		if !kn.Def.Effect.IsPure() || len(kn.Def.Blocks) != 0 {
			return false
		}
		need[s.ID] = true
		for _, a := range kn.Def.Args {
			if !mark(a) {
				return false
			}
		}
		return true
	}

	pp := &parPlan{}
	for _, a := range rep.Probes {
		if !mark(a.Ptr) {
			return nil, nil
		}
		pr, err := c.ref(a.Ptr)
		if err != nil {
			return nil, nil
		}
		pa := parAccess{ptr: pr, width: a.Bytes, scale: a.Scale, write: a.Write}
		if a.Idx != nil {
			if !mark(a.Idx) {
				return nil, nil
			}
			ix, err := c.ref(a.Idx)
			if err != nil {
				return nil, nil
			}
			pa.idx, pa.hasIdx = ix, true
		}
		pp.accesses = append(pp.accesses, pa)
	}
	for _, root := range rep.FreeRoots {
		if _, isTop := topDef[root.ID]; isTop {
			// A body-defined root (e.g. a select between pointers) has
			// no meaningful entry-time register value.
			return nil, nil
		}
		rr, err := c.ref(root)
		if err != nil {
			return nil, nil
		}
		pp.freeRoots = append(pp.freeRoots, rr)
	}
	for _, kn := range kept {
		if !need[kn.Sym.ID] {
			continue
		}
		vn, err := c.compileSimple(kn, nil)
		if err != nil {
			return nil, err
		}
		pp.probeOps = append(pp.probeOps, vn.asOp())
	}
	if rep.Reduce != nil {
		red, ok := makeReduce(rep.Reduce)
		if !ok {
			return nil, nil
		}
		pp.reduce = red
	}
	return pp, nil
}

// makeReduce builds the exact fold for a recognized reduction.
func makeReduce(r *loopdep.Reduction) (*reduceOp, bool) {
	if r.Vec {
		add, ok := vm.Lookup(r.Op)
		if !ok {
			return nil, false
		}
		fold := func(m *vm.Machine, a, b vm.Value, dst *vm.Vec) (vm.Value, error) {
			// The vm's own lanewise add. Its dst never aliases an
			// operand, and a may live in dst, so the sum goes through a
			// scratch register.
			var sum vm.Vec
			out, err := add.Fn(m, []vm.Value{a, b}, &sum)
			if err != nil {
				return vm.Value{}, err
			}
			*dst = sum
			out.V = dst
			return out, nil
		}
		// Lanes only read the seed: a carried vector is copied into the
		// lane frame's own slot (ownVec), so one zero register serves
		// every lane and run.
		zero := vm.Value{Kind: ir.KindVec, V: new(vm.Vec)}
		return &reduceOp{fold: fold, seed: func(vm.Value) vm.Value { return zero }}, true
	}
	bin, err := binaryFn(r.Op, r.Typ)
	if err != nil {
		return nil, false
	}
	fn := func(_ *vm.Machine, a, b vm.Value, _ *vm.Vec) (vm.Value, error) { return bin(a, b), nil }
	if r.SeedsWithInit() {
		return &reduceOp{fold: fn, seed: func(init vm.Value) vm.Value { return init }}, true
	}
	var id vm.Value
	switch r.Op {
	case ir.OpAnd:
		id = truncInt(r.Typ, -1)
	default: // add, or, xor: identity zero
		id = truncInt(r.Typ, 0)
	}
	return &reduceOp{fold: fn, seed: func(vm.Value) vm.Value { return id }}, true
}

// probeRec is one access's concrete byte geometry, recovered by the
// runtime probe: offset at the first iteration, per-iteration delta,
// offset at the last iteration, and width.
type probeRec struct {
	buf       *vm.Buffer
	o0, d, oL int64
	w         int64
}

// runParallel attempts a sharded execution. It returns done=false when
// a runtime check rejects the loop (the caller falls back to the serial
// driver with registers restored to entry state). Preconditions:
// start < end, hoisted ops have run, derived save/step state is
// initialised.
func (lc *loopCode) runParallel(fr *frame, start, stride, iters int64) (bool, error) {
	pp := lc.par
	recs := make([]probeRec, len(pp.accesses))
	probe := func(iv int64, slot int) bool {
		fr.regs[lc.iv].I = iv
		for _, o := range pp.probeOps {
			if o(fr) != nil {
				return false
			}
		}
		for i := range pp.accesses {
			a := &pp.accesses[i]
			pv := a.ptr.get(fr)
			if pv.Mem == nil {
				return false
			}
			esz := int64(pv.Mem.Prim.Bits() / 8)
			off := int64(pv.Off)
			if a.hasIdx {
				off += a.idx.get(fr).AsInt()
			}
			if a.scale != 0 {
				off *= int64(a.scale)
			} else {
				off *= esz
			}
			r := &recs[i]
			switch slot {
			case 0:
				r.buf, r.o0 = pv.Mem, off
				r.w = int64(a.width)
				if r.w == 0 {
					r.w = esz
				}
			case 1:
				if pv.Mem != r.buf {
					return false
				}
				r.d = off - r.o0
			default:
				if pv.Mem != r.buf {
					return false
				}
				r.oL = off
			}
		}
		return true
	}
	ok := probe(start, 0) && probe(start+stride, 1) && probe(start+(iters-1)*stride, 2)
	// Restore entry state for whichever driver runs next.
	fr.regs[lc.iv].I = start
	for j, s := range lc.derSlots {
		fr.regs[s].I = fr.regs[lc.saveOff+j].I
	}
	if !ok || !lc.admit(recs, iters, fr) {
		return false, nil
	}

	workers := fr.m.Workers
	if int64(workers) > iters {
		workers = int(iters)
	}
	chunkSize, chunks, owners := shardPlan(iters, workers)
	ranges := make([]chunkRange, workers)
	for w := 0; w < workers; w++ {
		ranges[w].init(owners[w], owners[w+1])
	}
	var partials []vm.Value
	var partialVecs []vm.Vec
	var seed vm.Value
	if lc.carried {
		partials = make([]vm.Value, chunks)
		partialVecs = make([]vm.Vec, chunks)
		seed = pp.reduce.seed(fr.regs[lc.accSlot])
	}
	errs := make([]error, chunks)
	wfrs := make([]*frame, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lane := w
		wg.Add(1)
		dispatch(func() {
			defer wg.Done()
			lc.lane(fr, lane, ranges, chunkSize, iters, start, stride, seed, partials, partialVecs, errs, wfrs)
		})
	}
	wg.Wait()
	// The lanes' counts join the parent's after the join; addition
	// commutes, so the sums equal the serial stream regardless of who
	// ran what. A lane machine's own counter holds only what a lane
	// flushed before reading it (_rdtsc).
	for _, wfr := range wfrs {
		fr.counts.absorb(wfr.counts)
		fr.m.Counts.Merge(wfr.m.Counts)
		releaseFrame(lc.prog, wfr)
	}
	parRuns.Add(1)
	parChunks.Add(int64(chunks))
	for k := range errs {
		if errs[k] != nil {
			// Chunks run to individual completion, so the lowest
			// erroring chunk holds the error of the serially-first
			// failing iteration.
			return true, errs[k]
		}
	}
	fr.counts.add(lc.trip, iters)
	if lc.carried {
		acc := fr.regs[lc.accSlot]
		for k := 0; k < chunks; k++ {
			var err error
			if acc, err = pp.reduce.fold(fr.m, acc, partials[k], &fr.vecs[lc.accVec]); err != nil {
				return true, err
			}
		}
		fr.regs[lc.accSlot] = acc
	}
	return true, nil
}

// admit applies the post-probe checks: three-point linearity and full
// in-bounds extrapolation for every access (rejecting wraparound and
// preserving serial error behaviour), equal non-zero deltas and a
// combined footprint no wider than the delta for every written buffer
// (disjoint per-iteration windows), and no free-read root aliasing a
// written buffer.
func (lc *loopCode) admit(recs []probeRec, iters int64, fr *frame) bool {
	pp := lc.par
	for i := range recs {
		r := &recs[i]
		if r.o0+(iters-1)*r.d != r.oL {
			return false
		}
		lo, hi := r.o0, r.o0+r.w
		if r.oL < lo {
			lo = r.oL
		}
		if r.oL+r.w > hi {
			hi = r.oL + r.w
		}
		if lo < 0 || hi > int64(len(r.buf.Data)) {
			return false
		}
	}
	type group struct {
		buf     *vm.Buffer
		d       int64
		lo, hi  int64
		started bool
	}
	var groups []group
	for i := range recs {
		if pp.accesses[i].write {
			found := false
			for j := range groups {
				if groups[j].buf == recs[i].buf {
					found = true
					break
				}
			}
			if !found {
				groups = append(groups, group{buf: recs[i].buf})
			}
		}
	}
	for i := range recs {
		r := &recs[i]
		for j := range groups {
			g := &groups[j]
			if g.buf != r.buf {
				continue
			}
			if !g.started {
				g.d, g.lo, g.hi, g.started = r.d, r.o0, r.o0+r.w, true
				break
			}
			if r.d != g.d {
				return false
			}
			if r.o0 < g.lo {
				g.lo = r.o0
			}
			if r.o0+r.w > g.hi {
				g.hi = r.o0 + r.w
			}
			break
		}
	}
	for j := range groups {
		g := &groups[j]
		d := g.d
		if d < 0 {
			d = -d
		}
		if d == 0 || g.hi-g.lo > d {
			return false
		}
	}
	for _, ref := range pp.freeRoots {
		rv := ref.get(fr)
		if rv.Mem == nil {
			return false
		}
		for j := range groups {
			if groups[j].buf == rv.Mem {
				return false
			}
		}
	}
	return true
}

// lane executes chunks on one worker: a pooled frame seeded from the
// parent's entry-state registers, a private machine, and the shared
// chunk queues. Completed iterations feed the frame's arena tally even
// on error, so ArenaStats never undercounts. The frame, which holds the
// lane's counts, goes to wfrs[w]; the parent releases it after the
// join.
func (lc *loopCode) lane(parent *frame, w int, ranges []chunkRange, chunkSize, iters, start, stride int64,
	seed vm.Value, partials []vm.Value, partialVecs []vm.Vec, errs []error, wfrs []*frame) {
	p := lc.prog
	poolGets.Add(1)
	wfr := p.pool.Get().(*frame)
	wfr.m = parent.m.Worker()
	wfrs[w] = wfr
	copy(wfr.regs, parent.regs[:len(parent.regs)-len(parent.counts)])
	for {
		k, stolen, ok := nextChunk(ranges, w)
		if !ok {
			break
		}
		if stolen {
			parSteals.Add(1)
		}
		k0 := int64(k) * chunkSize
		cnt := chunkSize
		if k0+cnt > iters {
			cnt = iters - k0
		}
		i0 := start + k0*stride
		wfr.regs[lc.iv].I = i0
		for j, s := range lc.derSlots {
			// Exact jump to iteration k0: serial advances the derived
			// value by int32(save + t*step) steps, and modular i32
			// arithmetic lets the chunk start compute it directly.
			wfr.regs[s].I = int64(int32(parent.regs[lc.saveOff+j].I +
				k0*parent.regs[lc.saveOff+lc.nDer+j].I))
		}
		if lc.carried {
			wfr.regs[lc.accSlot] = seed
		}
		done, err := lc.span(wfr, i0, stride, cnt)
		wfr.arena += done
		if err != nil {
			errs[k] = err
			continue
		}
		if lc.carried {
			// The lane frame's accumulator slot is rewritten by the
			// lane's next chunk, and the frame goes back to the pool.
			partials[k] = ownVec(wfr.regs[lc.accSlot], &partialVecs[k])
		}
	}
}
