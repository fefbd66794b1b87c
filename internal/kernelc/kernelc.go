// Package kernelc compiles a scheduled staged graph into an executable
// program over the software SIMD machine (internal/vm). It is the
// execution half of the substitution for the paper's "generate C,
// compile with gcc/icc/clang, link via JNI" pipeline: the C unparser
// (internal/cgen) still produces the C source a native toolchain would
// compile, while this package makes the very same graph runnable and
// countable inside the reproduction.
//
// Compilation is a single pass over the schedule: every live node
// becomes one closure over a virtual register frame. Dynamic instruction
// counts (per intrinsic name, plus scalar.* pseudo-ops for the host-
// language constructs) accumulate in the machine's Counter, which the
// analytical cost model converts to cycles.
//
// Several compile-time optimisations keep the interpreter off the
// profile without changing any observable count or result:
//
//   - Static count batching: the per-op increments inside a straight-line
//     block are a fixed multiset, so loops add (key, n·iters) once per
//     loop execution instead of per iteration.
//   - Superinstruction fusion: a value produced by one node and consumed
//     exactly once by the immediately following node (load→op, op→store
//     and friends) is passed directly instead of through a register,
//     collapsing two closure dispatches into one. Fusion composes
//     transitively into full load→op→…→store chains; FusedChains counts
//     the chains of length ≥ 3.
//   - Frame pooling: register frames and intrinsic-argument scratch are
//     recycled through a sync.Pool, so steady-state Run does not
//     allocate. Programs are safe to Run concurrently; each Run owns a
//     private frame. The scratch region doubles as the per-frame vector
//     arena: fused intermediates live there and are overwritten (reset)
//     on every loop iteration instead of being reallocated.
//   - The loop-nest optimizer (Options.Optimize, see optimize.go):
//     loop-invariant scalar defs are hoisted out of loop bodies and run
//     once at loop entry, affine i32 functions of the induction variable
//     (base + i*stride address math) are strength-reduced to one
//     incremental add per iteration, and evaluation is destination-
//     passing — node results are written straight into their register
//     (vm.Intrinsic.FnInto) instead of being copied through a returned
//     vm.Value. Dynamic counts are preserved exactly: hoisted and
//     strength-reduced nodes keep their entries in the body's static
//     count vector, so the cost model — and therefore every figure —
//     sees the identical op stream.
//
// Count invariance. The bench harness only needs an execution's dynamic
// op counts, never its results, and most kernels' counts do not depend
// on the data they process. CountProof proves this statically for one
// body with a forward taint analysis (invariance.go): values read from
// memory, results of intrinsics that read memory or machine state, and
// float parameters are tainted; taint flows through definitions, loop
// accumulators and if results; and a body is admitted only if no
// tainted value reaches a loop bound or stride, an if condition, an
// address or index operand, an integer or pointer intrinsic operand, or
// any operand of a gather or masked intrinsic. CountKey then names an
// execution of an admitted body by a caller-chosen prefix, pointer
// shapes (element type, length, offset) and integer/bool argument
// values — float arguments and memory contents are left out, which the
// proof makes safe — so executions with equal keys have identical
// counts and identical error outcomes. Both runtimes key on it: the
// simulated HotSpot per method and tier (hotspot.Method.CountKey) and
// NGen per compiled kernel and graph hash (core.Kernel.CountKey); the
// bench harness evaluates each distinct key once per suite.
//
// Count-only evaluation. Program.Count adds to a machine's counter
// exactly the map Run would add, without executing (count.go). It
// evaluates only an admitted body's skeleton — the untainted values a
// loop bound or stride, an if condition, or an address needs, with the
// interpreter's own scalar semantics — skips the float and vector work,
// turns every aload, astore and memory intrinsic into a bounds check of
// its footprint (vm.AccessOf, vector width included), and applies the
// static count vectors the compiled drivers apply. A loop nest with no
// if, whose bounds, strides and addresses are exact affine functions of
// its trip indices and whose inner trip counts do not vary with the
// outer indices, closes in O(body): counts scale by the trip-count
// products, and each access is checked at the extremes of its offset
// over the iteration box, in int64 with every i32 intermediate
// range-checked, so wraparound cannot hide an out-of-range index. Any
// other loop iterates the skeleton. Count refuses (ErrNotCounted,
// counter untouched) rather than guess — on any check it cannot prove,
// gathers and masked or RNG intrinsics, an attached cache simulator,
// and any out-of-range access — so the caller executes and the error
// comes from a real run; only a non-positive stride, which Run reports
// before any later access, returns Run's exact error.
package kernelc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Pseudo-op names for scalar (non-intrinsic) work, consumed by the cost
// model.
const (
	// OpScalarLoadStrided marks scalar loads whose index strides by the
	// innermost loop variable times a large factor (e.g. b[k*n+j] in a
	// k-innermost matrix loop): each access touches a fresh cache line,
	// which the memory model prices as a full 64-byte transfer.
	OpScalarLoadStrided = "scalar.load.strided"

	OpScalarALU   = "scalar.alu"
	OpScalarMul   = "scalar.mul"
	OpScalarDiv   = "scalar.div"
	OpScalarFP    = "scalar.fp"
	OpScalarFMul  = "scalar.fmul"
	OpScalarFDiv  = "scalar.fdiv"
	OpScalarLoad  = "scalar.load"
	OpScalarStore = "scalar.store"
	OpScalarConv  = "scalar.conv"
	OpLoopIter    = "scalar.loop"
	OpBranch      = "scalar.branch"
)

// Options selects the interpreter's compile-time optimisation passes.
// The zero value disables everything; use DefaultOptions (or Compile)
// for the shipping configuration.
type Options struct {
	// Fuse enables superinstruction fusion (PR 1).
	Fuse bool
	// Optimize enables the loop-nest optimizer: loop-invariant code
	// motion, strength reduction of affine induction-variable math, and
	// destination-passing evaluation (see optimize.go).
	Optimize bool
}

// DefaultOptions is the shipping configuration: everything on.
func DefaultOptions() Options { return Options{Fuse: true, Optimize: true} }

// Tier names a bundled optimisation level, used by the compile cache to
// keep artifacts from different configurations apart. The zero value is
// the fully optimized tier, so zero-valued runtimes get the fast path.
type Tier int

const (
	// TierOpt is the default: fusion plus the loop-nest optimizer.
	TierOpt Tier = iota
	// TierPlain is the PR-1-era pipeline: fusion only, no loop-nest
	// optimizer. Differential tests diff it against TierOpt.
	TierPlain
)

// String names the tier for cache keys and span attributes. Unknown
// values render as "tier(<n>)" so a miskeyed tier stays visible in
// cache paths and obs labels instead of silently aliasing "opt".
func (t Tier) String() string {
	switch t {
	case TierOpt:
		return "opt"
	case TierPlain:
		return "plain"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Options expands the tier into its pass selection.
func (t Tier) Options() Options {
	switch t {
	case TierPlain:
		return Options{Fuse: true, Optimize: false}
	default:
		return DefaultOptions()
	}
}

// Program is a compiled kernel.
type Program struct {
	F          *ir.Func
	nRegs      int
	scratchLen int   // intrinsic-argument scratch, one region per call site
	params     []int // register slot per parameter
	ops        []op
	rootCounts []countDelta // static op counts of the root block
	result     *argRef
	fused      int // superinstructions formed
	hoisted    int // loop-invariant nodes moved to loop entry
	strength   int // induction-variable nodes reduced to incremental adds
	chains     int // fusion chains of length ≥ 3 (load→op→…→store)
	pool       sync.Pool

	// loopVecs and armVecs keep, per loop and per if (by symbol id), the
	// static count vectors the compiled drivers apply — a loop's body
	// vector scaled by its trip count, an if's taken-arm vector — so
	// Count adds exactly what Run adds.
	loopVecs map[int][]countDelta
	armVecs  map[int][2][]countDelta
	// countOnce guards the count-only state built on first use: the
	// CountProof verdict and, for an admitted body, the skeleton Count
	// evaluates (see count.go).
	countOnce sync.Once
	proof     string
	skeleton  *countPlan
	refusal   string
}

// FusedOps returns how many producer nodes were fused into their
// consumers (for tests and diagnostics).
func (p *Program) FusedOps() int { return p.fused }

// Hoisted returns how many loop-invariant nodes the optimizer moved to
// their loop's entry.
func (p *Program) Hoisted() int { return p.hoisted }

// Strength returns how many affine induction-variable nodes were
// strength-reduced to one incremental add per iteration.
func (p *Program) Strength() int { return p.strength }

// FusedChains returns how many fusion chains collapse three or more
// nodes (a load→op→…→store superinstruction rather than a pair).
func (p *Program) FusedChains() int { return p.chains }

// Frame-pool traffic across all programs: gets counts every Run's frame
// checkout, news counts the checkouts the pool had to satisfy with a
// fresh allocation. The gap is the pool hit rate the observability
// layer reports (obs metric kernelc.pool.*); steady state news stays
// flat while gets grows.
var (
	poolGets atomic.Int64
	poolNews atomic.Int64
)

// PoolStats returns cumulative frame-pool checkouts and fresh
// allocations since process start (or the last ResetPoolStats).
func PoolStats() (gets, news int64) {
	return poolGets.Load(), poolNews.Load()
}

// ResetPoolStats zeroes the pool counters (tests).
func ResetPoolStats() {
	poolGets.Store(0)
	poolNews.Store(0)
}

// Vector-arena traffic across all programs: resets counts how many
// times a loop iteration recycled its frame's scratch arena in place
// (one per iteration of every loop an optimized program runs), slots
// counts the arena capacity compiled into programs. Both feed the
// obs gauges vec.arena.resets / vec.arena.slots.
var (
	arenaResets atomic.Int64
	arenaSlots  atomic.Int64
)

// ArenaStats returns cumulative arena reuse events and compiled arena
// slots since process start (or the last ResetArenaStats).
func ArenaStats() (resets, slots int64) {
	return arenaResets.Load(), arenaSlots.Load()
}

// ResetArenaStats zeroes the arena counters (tests).
func ResetArenaStats() {
	arenaResets.Store(0)
	arenaSlots.Store(0)
}

type frame struct {
	regs    []vm.Value
	scratch []vm.Value
	m       *vm.Machine
	// arena accumulates loop-iteration arena reuses during one Run and
	// is flushed to arenaResets when the frame is returned to the pool.
	arena int64
	// sink absorbs the unused destination of void destination-passing
	// ops (stores).
	sink vm.Value
}

type op func(fr *frame) error

// evalFn produces one node's value (the zero Value for void nodes).
type evalFn func(fr *frame) (vm.Value, error)

// evalIntoFn is the destination-passing form: the node's value is
// written into *out (void nodes leave it untouched), avoiding a copy of
// the 112-byte vm.Value through a return.
type evalIntoFn func(fr *frame, out *vm.Value) error

// countDelta is one entry of a block's static count vector: executing
// the block's straight-line ops once adds n to key.
type countDelta struct {
	key string
	n   int64
}

// inline requests that a fused producer's evaluator replace the
// consumer's argument at position pos. evalInto, when non-nil, lets the
// consumer evaluate the producer straight into its scratch-arena slot.
type inline struct {
	pos      int
	eval     evalFn
	evalInto evalIntoFn
	chain    int // producers already folded into this evaluator
}

// valNode is a compiled simple (non-control) node, held back briefly by
// compileBlock so the next node may fuse it.
type valNode struct {
	eval evalFn
	// evalInto, when non-nil, is the destination-passing fast path used
	// by the optimized tier in place of eval.
	evalInto evalIntoFn
	void     bool
	dst      int
	counts   []countDelta
	sym      ir.Sym
	chain    int // fused producers folded into this node
}

// asOp finalises a node that was not fused away.
func (v *valNode) asOp() op {
	if v.evalInto != nil {
		into := v.evalInto
		if v.void {
			return func(fr *frame) error {
				return into(fr, &fr.sink)
			}
		}
		dst := v.dst
		return func(fr *frame) error {
			return into(fr, &fr.regs[dst])
		}
	}
	eval := v.eval
	if v.void {
		return func(fr *frame) error {
			_, err := eval(fr)
			return err
		}
	}
	dst := v.dst
	return func(fr *frame) error {
		out, err := eval(fr)
		if err != nil {
			return err
		}
		fr.regs[dst] = out
		return nil
	}
}

// argRef locates an operand at run time: a constant materialised at
// compile time or a register slot.
type argRef struct {
	isConst bool
	val     vm.Value
	slot    int
}

func (a argRef) get(fr *frame) vm.Value {
	if a.isConst {
		return a.val
	}
	return fr.regs[a.slot]
}

type compiler struct {
	f     *ir.Func
	sched *ir.Scheduled
	slots map[int]int // sym id → register slot
	next  int
	// loopIVs is the stack of enclosing loop variables; the innermost
	// drives stride classification of scalar loads.
	loopIVs []ir.Sym
	// uses counts, per symbol, every reference from kept nodes' args,
	// block results and effect annotations; fusion requires exactly one.
	uses        map[int]int
	scratchNext int
	fuse        bool
	opt         bool
	fused       int
	hoisted     int
	strength    int
	chains      int
	// skip marks nodes (by sym id) the loop optimizer has claimed:
	// compileBlock leaves them out of the body so the loop driver can
	// run them at entry (hoisted) or incrementally (strength-reduced).
	skip map[int]bool
	// prog is the program under construction; loop drivers keep a
	// backreference so parallel lanes can draw frames from its pool.
	prog *Program
}

// strided reports whether an index expression strides by the innermost
// loop variable with a multiplicative factor (iv*X appears as a subterm).
func (c *compiler) strided(idx ir.Exp) bool {
	if len(c.loopIVs) == 0 {
		return false
	}
	iv := c.loopIVs[len(c.loopIVs)-1]
	var walk func(e ir.Exp, depth int) bool
	walk = func(e ir.Exp, depth int) bool {
		s, ok := e.(ir.Sym)
		if !ok || depth > 6 {
			return false
		}
		d, ok := c.f.G.Def(s)
		if !ok {
			return false
		}
		switch d.Op {
		case ir.OpMul, ir.OpShl:
			for _, a := range d.ArgSyms() {
				if a == iv {
					return true
				}
			}
			return false
		case ir.OpAdd, ir.OpSub:
			for _, a := range d.Args {
				if walk(a, depth+1) {
					return true
				}
			}
		}
		return false
	}
	return walk(idx, 0)
}

// Compile lowers a staged function to an executable program at the
// default (fully optimized) tier. Staging errors surface here:
// intrinsics without executable semantics, unbound symbols, unsupported
// ops.
func Compile(f *ir.Func) (*Program, error) { return CompileWith(f, DefaultOptions()) }

// CompileTier compiles at a named tier (the compile cache keys on it).
func CompileTier(f *ir.Func, t Tier) (*Program, error) { return CompileWith(f, t.Options()) }

// CompileWith exposes the optimisation switches so differential tests
// can compare configurations op-for-op.
func CompileWith(f *ir.Func, o Options) (*Program, error) {
	c := &compiler{f: f, sched: ir.Schedule(f), slots: map[int]int{},
		uses: map[int]int{}, fuse: o.Fuse, opt: o.Optimize, skip: map[int]bool{}}
	c.countUses(f.G.Root())
	p := &Program{F: f, loopVecs: map[int][]countDelta{}, armVecs: map[int][2][]countDelta{}}
	c.prog = p
	for _, prm := range f.Params {
		p.params = append(p.params, c.slot(prm))
	}
	ops, counts, err := c.compileBlock(f.G.Root())
	if err != nil {
		return nil, fmt.Errorf("kernelc: %s: %w", f.Name, err)
	}
	p.ops = ops
	p.rootCounts = counts
	if r := f.G.Root().Result; r != nil {
		ref, err := c.ref(r)
		if err != nil {
			return nil, fmt.Errorf("kernelc: %s: result: %w", f.Name, err)
		}
		p.result = &ref
	}
	p.nRegs = c.next
	p.scratchLen = c.scratchNext
	p.fused = c.fused
	p.hoisted = c.hoisted
	p.strength = c.strength
	p.chains = c.chains
	arenaSlots.Add(int64(p.scratchLen))
	p.pool.New = func() any {
		poolNews.Add(1)
		return &frame{
			regs:    make([]vm.Value, p.nRegs),
			scratch: make([]vm.Value, p.scratchLen),
		}
	}
	return p, nil
}

// countUses tallies every symbol reference reachable from the schedule.
func (c *compiler) countUses(b *ir.Block) {
	if s, ok := b.Result.(ir.Sym); ok {
		c.uses[s.ID]++
	}
	for _, n := range c.sched.Keep[b] {
		for _, a := range n.Def.Args {
			if s, ok := a.(ir.Sym); ok {
				c.uses[s.ID]++
			}
		}
		for _, s := range n.Def.Effect.Reads {
			c.uses[s.ID]++
		}
		for _, s := range n.Def.Effect.Writes {
			c.uses[s.ID]++
		}
		for _, blk := range n.Def.Blocks {
			c.countUses(blk)
		}
	}
}

func (c *compiler) slot(s ir.Sym) int {
	if idx, ok := c.slots[s.ID]; ok {
		return idx
	}
	idx := c.next
	c.next++
	c.slots[s.ID] = idx
	return idx
}

func (c *compiler) ref(e ir.Exp) (argRef, error) {
	switch x := e.(type) {
	case ir.Const:
		return argRef{isConst: true, val: constValue(x)}, nil
	case ir.Sym:
		idx, ok := c.slots[x.ID]
		if !ok {
			return argRef{}, fmt.Errorf("use of undefined symbol %v", x)
		}
		return argRef{slot: idx}, nil
	default:
		return argRef{}, fmt.Errorf("unsupported expression %T", e)
	}
}

func constValue(cst ir.Const) vm.Value {
	v := vm.Value{Kind: cst.Typ.Kind}
	switch {
	case cst.Typ.Kind == ir.KindBool:
		v.B = cst.B
	case cst.Typ.IsFloat():
		v.F = cst.F
	case cst.Typ.IsSigned():
		v.I = cst.I
	default:
		v.U = cst.U
	}
	return v
}

// fusablePos returns the argument position of d that references s, or -1
// when d cannot absorb an inlined producer. Any single position is safe
// for the whitelisted shapes because their remaining operands are pure
// register/constant reads: running the producer at consumer entry is
// observationally the same as running it immediately before (which is
// where it sat in the schedule).
func fusablePos(d *ir.Def, s ir.Sym) int {
	switch d.Op {
	case ir.OpSel:
		// Select evaluates only one of its value operands; inlining an
		// unconditionally-executed producer would skip it on the other
		// path and break the static count vector.
		return -1
	}
	pos := -1
	for i, a := range d.Args {
		if as, ok := a.(ir.Sym); ok && as.ID == s.ID {
			if pos >= 0 {
				return -1
			}
			pos = i
		}
	}
	return pos
}

// compileBlock lowers one block's kept nodes to ops plus the block's
// static count vector. A just-compiled simple node is held pending for
// one step so the next node may fuse it.
func (c *compiler) compileBlock(b *ir.Block) ([]op, []countDelta, error) {
	var ops []op
	var counts []countDelta
	var pending *valNode
	flush := func() {
		if pending != nil {
			if pending.chain >= 2 {
				c.chains++
			}
			ops = append(ops, pending.asOp())
			counts = append(counts, pending.counts...)
			pending = nil
		}
	}
	for _, n := range c.sched.Keep[b] {
		d := n.Def
		if c.skip[n.Sym.ID] {
			// Claimed by the loop optimizer; the loop driver executes it.
			// pending survives: removing this node makes its neighbours
			// adjacent, which can only create more fusion.
			continue
		}
		switch d.Op {
		case ir.OpComment, ir.OpParam:
			continue
		case ir.OpLoop:
			flush()
			o, err := c.compileLoop(n)
			if err != nil {
				return nil, nil, err
			}
			ops = append(ops, o)
		case ir.OpIf:
			flush()
			o, err := c.compileIf(n)
			if err != nil {
				return nil, nil, err
			}
			ops = append(ops, o)
			counts = append(counts, countDelta{OpBranch, 1})
		default:
			var inl *inline
			var prodCounts []countDelta
			if c.fuse && pending != nil && !pending.void && c.uses[pending.sym.ID] == 1 {
				if pos := fusablePos(d, pending.sym); pos >= 0 {
					inl = &inline{pos: pos, eval: pending.eval,
						evalInto: pending.evalInto, chain: pending.chain}
					prodCounts = pending.counts
					pending = nil
					c.fused++
				}
			}
			flush()
			vn, err := c.compileSimple(n, inl)
			if err != nil {
				return nil, nil, err
			}
			if inl != nil {
				vn.counts = append(append([]countDelta{}, prodCounts...), vn.counts...)
				vn.chain = inl.chain + 1
			}
			pending = vn
		}
	}
	flush()
	return ops, mergeCounts(counts), nil
}

// mergeCounts folds duplicate keys, preserving first-appearance order.
func mergeCounts(cds []countDelta) []countDelta {
	if len(cds) <= 1 {
		return cds
	}
	sums := make(map[string]int64, len(cds))
	var order []string
	for _, cd := range cds {
		if _, ok := sums[cd.key]; !ok {
			order = append(order, cd.key)
		}
		sums[cd.key] += cd.n
	}
	out := make([]countDelta, 0, len(order))
	for _, k := range order {
		out = append(out, countDelta{k, sums[k]})
	}
	return out
}

func (c *compiler) compileSimple(n *ir.Node, inl *inline) (*valNode, error) {
	switch n.Def.Op {
	case ir.OpALoad:
		return c.compileALoad(n, inl)
	case ir.OpAStore:
		return c.compileAStore(n, inl)
	case ir.OpPtrAdd:
		return c.compilePtrAdd(n, inl)
	case ir.OpConv:
		return c.compileConv(n, inl)
	case ir.OpSel:
		return c.compileSelect(n)
	}
	if ir.IsIntrinsicOp(n.Def.Op) {
		return c.compileIntrinsic(n, inl)
	}
	return c.compileScalar(n, inl)
}

func (c *compiler) refs(args []ir.Exp) ([]argRef, error) {
	out := make([]argRef, len(args))
	for i, a := range args {
		r, err := c.ref(a)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// fusedRefs resolves the argument list, substituting a harmless constant
// for the inlined position (its register is never written).
func (c *compiler) fusedRefs(args []ir.Exp, inl *inline) ([]argRef, error) {
	cp := make([]ir.Exp, len(args))
	copy(cp, args)
	if inl != nil {
		cp[inl.pos] = ir.ConstInt(0)
	}
	return c.refs(cp)
}

func (c *compiler) valNode(n *ir.Node, eval evalFn, counts ...countDelta) *valNode {
	void := n.Def.Typ == ir.TVoid
	dst := -1
	if !void {
		dst = c.slot(n.Sym)
	}
	return &valNode{eval: eval, void: void, dst: dst, counts: counts, sym: n.Sym}
}

func (c *compiler) compileIntrinsic(n *ir.Node, inl *inline) (*valNode, error) {
	name := n.Def.Op
	in, ok := vm.Lookup(name)
	if !ok {
		// The paper's analog: LMS accepts the staged call, but the
		// native toolchain cannot execute it on this machine.
		return nil, fmt.Errorf("intrinsic %s has no executable semantic in the vm", name)
	}
	args, err := c.fusedRefs(n.Def.Args, inl)
	if err != nil {
		return nil, err
	}
	off := c.scratchNext
	c.scratchNext += len(args)
	nArgs := len(args)
	ie, pos := inlineParts(inl)
	fn := in.Fn
	if c.opt {
		// Destination-passing tier: arguments are gathered into the
		// frame's scratch arena, an inlined producer evaluates straight
		// into its arena slot, and the intrinsic writes its result into
		// the caller-provided destination (via the vm fast path when one
		// is registered). Argument gathering is pure register reads, so
		// running the producer after it is observationally identical to
		// the plain tier's producer-first order.
		var iInto evalIntoFn
		if inl != nil {
			iInto = inl.evalInto
		}
		fnInto := in.FnInto
		evalInto := func(fr *frame, out *vm.Value) error {
			vals := fr.scratch[off : off+nArgs]
			for i, a := range args {
				vals[i] = a.get(fr)
			}
			if pos >= 0 {
				if iInto != nil {
					if err := iInto(fr, &vals[pos]); err != nil {
						return err
					}
				} else {
					v, err := ie(fr)
					if err != nil {
						return err
					}
					vals[pos] = v
				}
			}
			if fnInto != nil {
				if err := fnInto(fr.m, vals, out); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				return nil
			}
			v, err := fn(fr.m, vals)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			*out = v
			return nil
		}
		eval := func(fr *frame) (vm.Value, error) {
			var out vm.Value
			err := evalInto(fr, &out)
			return out, err
		}
		vn := c.valNode(n, eval, countDelta{name, 1})
		vn.evalInto = evalInto
		return vn, nil
	}
	eval := func(fr *frame) (vm.Value, error) {
		var iv vm.Value
		if pos >= 0 {
			v, err := ie(fr)
			if err != nil {
				return vm.Value{}, err
			}
			iv = v
		}
		vals := fr.scratch[off : off+nArgs]
		for i, a := range args {
			vals[i] = a.get(fr)
		}
		if pos >= 0 {
			vals[pos] = iv
		}
		out, err := fn(fr.m, vals)
		if err != nil {
			return vm.Value{}, fmt.Errorf("%s: %w", name, err)
		}
		return out, nil
	}
	return c.valNode(n, eval, countDelta{name, 1}), nil
}

func inlineParts(inl *inline) (evalFn, int) {
	if inl == nil {
		return nil, -1
	}
	return inl.eval, inl.pos
}

func (c *compiler) compileLoop(n *ir.Node) (op, error) {
	args, err := c.refs(n.Def.Args)
	if err != nil {
		return nil, err
	}
	body := n.Def.Blocks[0]
	iv := c.slot(body.Params[0])
	// Loop-carried accumulator (LoopAcc): 4th argument is the initial
	// value, 2nd block param the carried symbol, block result the next
	// value.
	carried := len(n.Def.Args) == 4
	var accSlot, dst int
	if carried {
		accSlot = c.slot(body.Params[1])
		dst = c.slot(n.Sym)
	}
	// The loop-nest optimizer claims invariant and affine nodes before
	// the body is lowered; compileBlock then skips them.
	var plan loopPlan
	if c.opt {
		plan = c.planLoop(body)
	}
	// Claimed nodes still own a register the body reads; assign their
	// slots now since compileBlock will skip them.
	for _, pn := range plan.hoisted {
		c.skip[pn.Sym.ID] = true
		c.slot(pn.Sym)
	}
	for _, pn := range plan.derived {
		c.skip[pn.Sym.ID] = true
		c.slot(pn.Sym)
	}
	c.loopIVs = append(c.loopIVs, body.Params[0])
	bodyOps, bodyCounts, err := c.compileBlock(body)
	c.loopIVs = c.loopIVs[:len(c.loopIVs)-1]
	for _, pn := range plan.hoisted {
		delete(c.skip, pn.Sym.ID)
	}
	for _, pn := range plan.derived {
		delete(c.skip, pn.Sym.ID)
	}
	if err != nil {
		return nil, err
	}
	var next argRef
	if carried {
		next, err = c.ref(body.Result)
		if err != nil {
			return nil, err
		}
	}
	// Per-loop iteration counter so the cost model can attribute the
	// loop-carried dependency chain (see internal/machine). The body's
	// static count vector is applied once, scaled by the trip count.
	loopKey := loopKeyOf(n.Sym)
	if !c.opt {
		c.prog.loopVecs[n.Sym.ID] = bodyCounts
		return func(fr *frame) error {
			start := args[0].get(fr).AsInt()
			end := args[1].get(fr).AsInt()
			stride := args[2].get(fr).AsInt()
			if stride <= 0 {
				return fmt.Errorf("forloop stride %d must be positive", stride)
			}
			if carried {
				fr.regs[accSlot] = args[3].get(fr)
			}
			iters := int64(0)
			for i := start; i < end; i += stride {
				fr.regs[iv] = vm.Value{Kind: ir.KindI32, I: i}
				for _, o := range bodyOps {
					if err := o(fr); err != nil {
						return err
					}
				}
				if carried {
					fr.regs[accSlot] = next.get(fr)
				}
				iters++
			}
			fr.m.Counts.Add(OpLoopIter, iters)
			fr.m.Counts.Add(loopKey, iters)
			for _, cd := range bodyCounts {
				fr.m.Counts.Add(cd.key, cd.n*iters)
			}
			if carried {
				fr.regs[dst] = fr.regs[accSlot]
			}
			return nil
		}, nil
	}
	// Optimized driver. Hoisted and strength-reduced nodes execute at
	// loop entry (guarded by start < end, so zero-trip loops behave as
	// before); their static counts were merged into bodyCounts by
	// planLoop's caller below, keeping the dynamic count stream
	// identical to the plain tier. Strength-reduced (derived) nodes are
	// affine i32 functions of the induction variable: their per-stride
	// step is measured once by evaluating the chain at start and
	// start+stride — exact because i32 arithmetic is linear in the ring
	// Z/2^32 and truncation commutes with it — then each iteration
	// advances them with one masked add instead of re-running the chain.
	hoistedOps, derivedOps, extraCounts, derSlots, err := c.lowerPlan(plan)
	if err != nil {
		return nil, err
	}
	bodyCounts = mergeCounts(append(bodyCounts, extraCounts...))
	c.prog.loopVecs[n.Sym.ID] = bodyCounts
	nDer := len(derivedOps)
	saveOff := c.scratchNext
	c.scratchNext += 2 * nDer // derived save/step area in the frame arena
	lc := &loopCode{
		prog: c.prog, args: args, iv: iv, carried: carried,
		accSlot: accSlot, dst: dst, next: next,
		bodyOps: bodyOps, bodyCounts: bodyCounts,
		hoistedOps: hoistedOps, derivedOps: derivedOps,
		derSlots: derSlots, saveOff: saveOff, nDer: nDer,
		loopKey: loopKey,
	}
	// The parallel tier: when the dependence analysis proves iterations
	// independent, attach the probe plan; the driver decides per
	// execution (trip count, worker budget, runtime probe) whether to
	// shard.
	pp, err := c.buildParPlan(n, body)
	if err != nil {
		return nil, err
	}
	if pp != nil {
		lc.par = pp
		parEligible.Add(1)
	}
	return lc.run, nil
}

// loopKeyOf names a loop's per-loop iteration counter.
func loopKeyOf(s ir.Sym) string { return fmt.Sprintf("loop.#%d", s.ID) }

// loopCode is one optimized loop's compiled driver state, shared by the
// serial loop and the parallel lanes.
type loopCode struct {
	prog    *Program
	args    []argRef // start, end, stride[, init]
	iv      int
	carried bool
	accSlot int
	dst     int
	next    argRef
	bodyOps []op
	// bodyCounts is the body's static count vector, applied once scaled
	// by the trip count.
	bodyCounts []countDelta
	hoistedOps []op
	derivedOps []op
	derSlots   []int
	saveOff    int // derived save/step area in the frame arena
	nDer       int
	loopKey    string
	par        *parPlan // nil when the loop is statically serial
}

// run is the optimized loop driver. Hoisted and strength-reduced nodes
// execute at loop entry (guarded by start < end, so zero-trip loops
// behave as before); their static counts were merged into bodyCounts,
// keeping the dynamic count stream identical to the plain tier.
// Strength-reduced (derived) nodes are affine i32 functions of the
// induction variable: their per-stride step is measured once by
// evaluating the chain at start and start+stride — exact because i32
// arithmetic is linear in the ring Z/2^32 and truncation commutes with
// it — then each iteration advances them with one masked add instead of
// re-running the chain.
func (lc *loopCode) run(fr *frame) error {
	args := lc.args
	start := args[0].get(fr).AsInt()
	end := args[1].get(fr).AsInt()
	stride := args[2].get(fr).AsInt()
	if stride <= 0 {
		return fmt.Errorf("forloop stride %d must be positive", stride)
	}
	if lc.carried {
		fr.regs[lc.accSlot] = args[3].get(fr)
	}
	var iters int64
	if start < end {
		iters = (end - start + stride - 1) / stride
		fr.regs[lc.iv] = vm.Value{Kind: ir.KindI32, I: start}
		for _, o := range lc.hoistedOps {
			if err := o(fr); err != nil {
				return err
			}
		}
		if lc.nDer > 0 {
			for _, o := range lc.derivedOps {
				if err := o(fr); err != nil {
					return err
				}
			}
			for j, s := range lc.derSlots {
				fr.scratch[lc.saveOff+j].I = fr.regs[s].I
			}
			fr.regs[lc.iv].I = start + stride
			for _, o := range lc.derivedOps {
				if err := o(fr); err != nil {
					return err
				}
			}
			for j, s := range lc.derSlots {
				fr.scratch[lc.saveOff+lc.nDer+j].I = fr.regs[s].I - fr.scratch[lc.saveOff+j].I
				fr.regs[s].I = fr.scratch[lc.saveOff+j].I
			}
			fr.regs[lc.iv].I = start
		}
		if lc.par != nil && iters >= parMinIters && fr.m.Workers > 1 && fr.m.Cache == nil {
			// The cache simulator is order-sensitive shared state, so
			// simulated runs always take the serial driver.
			if done, err := lc.runParallel(fr, start, stride, iters); done {
				if err != nil {
					return err
				}
				if lc.carried {
					fr.regs[lc.dst] = fr.regs[lc.accSlot]
				}
				return nil
			}
			parFallbacks.Add(1)
		}
	}
	// Completed iterations feed the arena tally even when the body
	// errors mid-loop, so ArenaStats never undercounts recycled frames.
	completed, err := lc.span(fr, start, stride, iters)
	fr.arena += completed
	if err != nil {
		return err
	}
	lc.addCounts(fr.m, iters)
	if lc.carried {
		fr.regs[lc.dst] = fr.regs[lc.accSlot]
	}
	return nil
}

// span executes cnt consecutive iterations starting at induction value
// i0, assuming the iv register and derived registers already hold the
// i0 state. It returns how many iterations completed.
func (lc *loopCode) span(fr *frame, i0, stride, cnt int64) (int64, error) {
	i := i0
	for t := int64(0); t < cnt; t++ {
		if t != 0 {
			// The iv Value was fully initialised at entry; later
			// iterations only need the integer field bumped.
			fr.regs[lc.iv].I = i
			for j, s := range lc.derSlots {
				r := &fr.regs[s]
				r.I = int64(int32(r.I + fr.scratch[lc.saveOff+lc.nDer+j].I))
			}
		}
		for _, o := range lc.bodyOps {
			if err := o(fr); err != nil {
				return t, err
			}
		}
		if lc.carried {
			fr.regs[lc.accSlot] = lc.next.get(fr)
		}
		i += stride
	}
	return cnt, nil
}

// addCounts applies the loop's contribution to the dynamic op stream:
// one iteration count, the per-loop attribution key, and the body's
// static vector scaled by the trip count.
func (lc *loopCode) addCounts(m *vm.Machine, iters int64) {
	m.Counts.Add(OpLoopIter, iters)
	m.Counts.Add(lc.loopKey, iters)
	for _, cd := range lc.bodyCounts {
		m.Counts.Add(cd.key, cd.n*iters)
	}
}

func (c *compiler) compileIf(n *ir.Node) (op, error) {
	cond, err := c.ref(n.Def.Args[0])
	if err != nil {
		return nil, err
	}
	thenB, elseB := n.Def.Blocks[0], n.Def.Blocks[1]
	thenOps, thenCounts, err := c.compileBlock(thenB)
	if err != nil {
		return nil, err
	}
	elseOps, elseCounts, err := c.compileBlock(elseB)
	if err != nil {
		return nil, err
	}
	var thenRes, elseRes *argRef
	if thenB.Result != nil {
		r, err := c.ref(thenB.Result)
		if err != nil {
			return nil, err
		}
		thenRes = &r
	}
	if elseB.Result != nil {
		r, err := c.ref(elseB.Result)
		if err != nil {
			return nil, err
		}
		elseRes = &r
	}
	dst := c.slot(n.Sym)
	void := n.Def.Typ == ir.TVoid
	c.prog.armVecs[n.Sym.ID] = [2][]countDelta{thenCounts, elseCounts}
	// The branch op itself is in the parent block's static vector; only
	// the taken arm's counts are applied here.
	return func(fr *frame) error {
		if cond.get(fr).B {
			for _, o := range thenOps {
				if err := o(fr); err != nil {
					return err
				}
			}
			for _, cd := range thenCounts {
				fr.m.Counts.Add(cd.key, cd.n)
			}
			if !void && thenRes != nil {
				fr.regs[dst] = thenRes.get(fr)
			}
		} else {
			for _, o := range elseOps {
				if err := o(fr); err != nil {
					return err
				}
			}
			for _, cd := range elseCounts {
				fr.m.Counts.Add(cd.key, cd.n)
			}
			if !void && elseRes != nil {
				fr.regs[dst] = elseRes.get(fr)
			}
		}
		return nil
	}, nil
}

func (c *compiler) compileALoad(n *ir.Node, inl *inline) (*valNode, error) {
	args, err := c.fusedRefs(n.Def.Args, inl)
	if err != nil {
		return nil, err
	}
	kind := n.Sym.Typ.Kind
	costKey := OpScalarLoad
	if c.strided(n.Def.Args[1]) {
		costKey = OpScalarLoadStrided
	}
	ptrRef, idxRef := args[0], args[1]
	ie, pos := inlineParts(inl)
	eval := func(fr *frame) (vm.Value, error) {
		ptr := ptrRef.get(fr)
		idxV := idxRef.get(fr)
		if pos >= 0 {
			v, err := ie(fr)
			if err != nil {
				return vm.Value{}, err
			}
			if pos == 0 {
				ptr = v
			} else {
				idxV = v
			}
		}
		if ptr.Mem == nil {
			return vm.Value{}, fmt.Errorf("aload through nil array")
		}
		idx := int(idxV.AsInt()) + ptr.Off
		if idx < 0 || idx >= ptr.Mem.Len() {
			return vm.Value{}, fmt.Errorf("aload index %d out of bounds [0,%d)", idx, ptr.Mem.Len())
		}
		fr.m.Touch(ptr.Mem, idx*ptr.Mem.Prim.Bits()/8, ptr.Mem.Prim.Bits()/8)
		var v vm.Value
		v.Kind = kind
		switch kind {
		case ir.KindF32:
			v.F = float64(ptr.Mem.F32At(idx))
		case ir.KindF64:
			v.F = ptr.Mem.F64At(idx)
		case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
			v.U = uint64(ptr.Mem.IntAt(idx))
		default:
			v.I = ptr.Mem.IntAt(idx)
		}
		return v, nil
	}
	vn := c.valNode(n, eval, countDelta{costKey, 1})
	if c.opt {
		// Destination-passing variant: the loaded scalar is built
		// directly in the destination instead of being copied through a
		// returned Value.
		vn.evalInto = func(fr *frame, out *vm.Value) error {
			ptr := ptrRef.get(fr)
			idxV := idxRef.get(fr)
			if pos >= 0 {
				v, err := ie(fr)
				if err != nil {
					return err
				}
				if pos == 0 {
					ptr = v
				} else {
					idxV = v
				}
			}
			if ptr.Mem == nil {
				return fmt.Errorf("aload through nil array")
			}
			idx := int(idxV.AsInt()) + ptr.Off
			if idx < 0 || idx >= ptr.Mem.Len() {
				return fmt.Errorf("aload index %d out of bounds [0,%d)", idx, ptr.Mem.Len())
			}
			fr.m.Touch(ptr.Mem, idx*ptr.Mem.Prim.Bits()/8, ptr.Mem.Prim.Bits()/8)
			*out = vm.Value{Kind: kind}
			switch kind {
			case ir.KindF32:
				out.F = float64(ptr.Mem.F32At(idx))
			case ir.KindF64:
				out.F = ptr.Mem.F64At(idx)
			case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
				out.U = uint64(ptr.Mem.IntAt(idx))
			default:
				out.I = ptr.Mem.IntAt(idx)
			}
			return nil
		}
	}
	return vn, nil
}

func (c *compiler) compileAStore(n *ir.Node, inl *inline) (*valNode, error) {
	args, err := c.fusedRefs(n.Def.Args, inl)
	if err != nil {
		return nil, err
	}
	kind := n.Def.Args[2].Type().Kind
	ptrRef, idxRef, valRef := args[0], args[1], args[2]
	ie, pos := inlineParts(inl)
	eval := func(fr *frame) (vm.Value, error) {
		ptr := ptrRef.get(fr)
		idxV := idxRef.get(fr)
		v := valRef.get(fr)
		if pos >= 0 {
			fv, err := ie(fr)
			if err != nil {
				return vm.Value{}, err
			}
			switch pos {
			case 0:
				ptr = fv
			case 1:
				idxV = fv
			default:
				v = fv
			}
		}
		if ptr.Mem == nil {
			return vm.Value{}, fmt.Errorf("astore through nil array")
		}
		idx := int(idxV.AsInt()) + ptr.Off
		if idx < 0 || idx >= ptr.Mem.Len() {
			return vm.Value{}, fmt.Errorf("astore index %d out of bounds [0,%d)", idx, ptr.Mem.Len())
		}
		fr.m.Touch(ptr.Mem, idx*ptr.Mem.Prim.Bits()/8, ptr.Mem.Prim.Bits()/8)
		switch kind {
		case ir.KindF32, ir.KindF64:
			switch ptr.Mem.Prim.Bits() {
			case 32:
				ptr.Mem.SetF32At(idx, float32(v.F))
			default:
				ptr.Mem.SetF64At(idx, v.F)
			}
		default:
			ptr.Mem.SetIntAt(idx, v.AsInt())
		}
		return vm.Value{}, nil
	}
	return c.valNode(n, eval, countDelta{OpScalarStore, 1}), nil
}

func (c *compiler) compilePtrAdd(n *ir.Node, inl *inline) (*valNode, error) {
	args, err := c.fusedRefs(n.Def.Args, inl)
	if err != nil {
		return nil, err
	}
	ptrRef, idxRef := args[0], args[1]
	ie, pos := inlineParts(inl)
	eval := func(fr *frame) (vm.Value, error) {
		ptr := ptrRef.get(fr)
		idxV := idxRef.get(fr)
		if pos >= 0 {
			v, err := ie(fr)
			if err != nil {
				return vm.Value{}, err
			}
			if pos == 0 {
				ptr = v
			} else {
				idxV = v
			}
		}
		ptr.Off += int(idxV.AsInt())
		return ptr, nil
	}
	return c.valNode(n, eval, countDelta{OpScalarALU, 1}), nil
}

func (c *compiler) compileConv(n *ir.Node, inl *inline) (*valNode, error) {
	src, err := c.fusedRefs(n.Def.Args, inl)
	if err != nil {
		return nil, err
	}
	srcRef := src[0]
	to := n.Sym.Typ
	ie, _ := inlineParts(inl)
	var eval evalFn
	if ie != nil {
		eval = func(fr *frame) (vm.Value, error) {
			v, err := ie(fr)
			if err != nil {
				return vm.Value{}, err
			}
			return convert(v, to), nil
		}
	} else {
		eval = func(fr *frame) (vm.Value, error) {
			return convert(srcRef.get(fr), to), nil
		}
	}
	return c.valNode(n, eval, countDelta{OpScalarConv, 1}), nil
}

func (c *compiler) compileSelect(n *ir.Node) (*valNode, error) {
	args, err := c.refs(n.Def.Args)
	if err != nil {
		return nil, err
	}
	condRef, aRef, bRef := args[0], args[1], args[2]
	eval := func(fr *frame) (vm.Value, error) {
		if condRef.get(fr).B {
			return aRef.get(fr), nil
		}
		return bRef.get(fr), nil
	}
	return c.valNode(n, eval, countDelta{OpScalarALU, 1}), nil
}

// convert implements scalar conversions with the target type's wrap
// semantics.
func convert(v vm.Value, to ir.Type) vm.Value {
	out := vm.Value{Kind: to.Kind}
	switch {
	case to.Kind == ir.KindBool:
		out.B = v.AsInt() != 0
	case to.IsFloat():
		switch v.Kind {
		case ir.KindF32, ir.KindF64:
			out.F = v.F
		default:
			out.F = v.AsFloat()
		}
		if to.Kind == ir.KindF32 {
			out.F = float64(float32(out.F))
		}
	default:
		var raw int64
		switch v.Kind {
		case ir.KindF32, ir.KindF64:
			if math.IsNaN(v.F) {
				raw = 0
			} else {
				raw = int64(v.F)
			}
		default:
			raw = v.AsInt()
		}
		out = truncInt(to, raw)
	}
	return out
}

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
	}
	return out
}

// Run executes the program on machine m with the given arguments (one
// per staged parameter, arrays as vm pointer values). Frames come from a
// pool, so steady-state execution allocates nothing; concurrent Runs of
// one Program are safe (each holds a private frame).
func (p *Program) Run(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	if len(args) != len(p.params) {
		return vm.Value{}, fmt.Errorf("kernelc: %s: got %d arguments, want %d",
			p.F.Name, len(args), len(p.params))
	}
	poolGets.Add(1)
	fr := p.pool.Get().(*frame)
	fr.m = m
	for i, slot := range p.params {
		fr.regs[slot] = args[i]
	}
	for _, o := range p.ops {
		if err := o(fr); err != nil {
			releaseFrame(p, fr)
			return vm.Value{}, fmt.Errorf("kernelc: %s: %w", p.F.Name, err)
		}
	}
	for _, cd := range p.rootCounts {
		m.Counts.Add(cd.key, cd.n)
	}
	var out vm.Value
	if p.result != nil {
		out = p.result.get(fr)
	}
	releaseFrame(p, fr)
	return out, nil
}

// releaseFrame flushes the frame's arena tally and returns it to the
// pool.
func releaseFrame(p *Program, fr *frame) {
	if fr.arena != 0 {
		arenaResets.Add(fr.arena)
		fr.arena = 0
	}
	fr.m = nil
	p.pool.Put(fr)
}
