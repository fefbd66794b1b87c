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
//   - Frame pooling: register frames and the vector register file are
//     recycled through a sync.Pool, so steady-state Run does not
//     allocate. Programs are safe to Run concurrently; each Run owns a
//     private frame. Part of the register file is the per-frame arena
//     (compiler.reserve): fused intermediates, unbound intrinsics'
//     argument regions and loop save areas live there and are
//     overwritten on every loop iteration instead of being reallocated.
//   - The vector register file: a vm.Value refers to its register
//     instead of holding it, and each intrinsic node with a vector
//     result owns one slot of the frame's file, where it writes that
//     result. A slot is rewritten every time its node runs, so the
//     drivers copy a vector exactly where it must outlive that: a
//     loop-carried accumulator (into the loop's own slot, since the
//     body may read it after producing the next one), a parallel lane's
//     partial (the lane's next chunk rewrites the slot) and a vector Run
//     returns (the frame goes back to the pool).
//   - Lane bindings: an intrinsic whose semantic is one lane kernel
//     (vm.Lane) is bound to the frame at compile time
//     (bind.go): each call is one direct call of the kernel on the
//     registers its operands' Values refer to, or on a buffer's bytes
//     and offset, writing the node's slot. Constant operands get
//     registers of their own, a fused pointer add is folded into the
//     load or store it feeds, and the node's register is written only
//     when it does not already refer to the slot. The record is the one
//     vm.Intrinsic.Fn is built from, so the binding and Fn compute the
//     same thing; intrinsics without a lane kernel gather their operand
//     Values into an arena region and call Fn.
//   - Destination passing: every node evaluates into a destination it
//     is handed (evalFn) instead of returning its value. A node's result
//     is written into its register, a void node's into the frame's sink,
//     a pointer add advances the displacement in place, and a fused
//     producer evaluates straight into an arena register or argument
//     slot of an intrinsic consumer, or into any other consumer's own
//     destination, which the consumer then overwrites. Each intrinsic
//     has one semantic, its vm.Intrinsic.Fn or the lane kernel that Fn
//     is built from; both tiers and Count execute it.
//   - The loop-nest optimizer (TierOpt, see optimize.go): loop-invariant
//     scalar defs are hoisted out of loop bodies and run once at loop
//     entry, and affine i32 functions of the induction variable (base +
//     i*stride address math) are strength-reduced to one incremental
//     add per iteration. Dynamic counts are preserved exactly: hoisted
//     and strength-reduced nodes keep their entries in the body's
//     static count vector, so the cost model — and therefore every
//     figure — sees the identical op stream. TierPlain compiles the same
//     nodes and runs the same loop driver with an empty loop plan and
//     no parallel plan.
//
// Counting once. Every count is decided once, from one walk of the
// schedule: StaticCounts gives each block's static count vector (the
// root, every loop body, every if arm; a scalar load is strided when
// its index multiplies the innermost loop variable), and the loop and
// if drivers, Count and the native generator all apply those vectors.
// The bench harness only needs an execution's dynamic op counts, never
// its results, and most kernels' counts do not depend on the data they
// process. One backward slice over the graph (count.go) both proves
// that and builds what Count evaluates. Its sinks are the operands that
// steer control or addressing: a loop bound or stride, an if
// condition, an address or index, an integer or pointer intrinsic
// operand, and any operand of a gather or masked intrinsic. Everything
// they depend on, through definitions, loop accumulators and if
// results, is needed. Program.Proof admits a body when nothing needed
// is read from memory (an aload, or an intrinsic that reads memory or
// machine state) or is a float or vector parameter. CountKey then
// names an execution of an admitted body by a caller-chosen prefix,
// pointer shapes (element type, length, offset) and integer/bool
// argument values — float arguments and memory contents are left out,
// which the proof makes safe — so executions with equal keys have
// identical counts and identical error outcomes. Both runtimes key on
// it: the simulated HotSpot per method and tier
// (hotspot.Method.CountKey) and NGen per compiled kernel and graph hash
// (core.Kernel.CountKey); the bench harness evaluates each distinct key
// once per suite, and Program.Count adds to a machine's counter exactly
// the map Run would add, without executing. Count evaluates the needed
// values of an admitted body — the skeleton — with the interpreter's
// own scalar semantics, skips the float and vector work, turns every
// aload, astore and memory intrinsic into a bounds check of its
// footprint (vm.AccessOf, vector width included), and applies the
// static count vectors. A loop nest with no if, whose bounds, strides
// and addresses are exact affine functions of its trip indices and
// whose inner trip counts do not vary with the outer indices, closes in
// O(body): counts scale by the trip-count products, and each access is
// checked at the extremes of its offset over the iteration box, in
// int64 with every i32 intermediate range-checked, so wraparound cannot
// hide an out-of-range index. Any other loop iterates the skeleton.
// Count refuses (ErrNotCounted, counter untouched) rather than guess —
// on any check it cannot prove, gathers and masked or RNG intrinsics
// (operands the skeleton cannot bound; these refuse Count only, not
// Proof), an attached cache simulator, and any out-of-range access — so
// the caller executes and the error comes from a real run; only a
// non-positive stride, which Run reports before any later access,
// returns Run's exact error.
package kernelc

import (
	"fmt"
	"math"
	"strconv"
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

// Tier names a bundled optimisation level, used by the compile cache to
// keep artifacts from different configurations apart. The zero value is
// the fully optimized tier, so zero-valued runtimes get the fast path.
// Both tiers fuse, pass destinations and run one loop driver; they
// differ only in the loops' plans.
type Tier int

const (
	// TierOpt is the default: fusion plus the loop-nest optimizer and the
	// parallel loop tier.
	TierOpt Tier = iota
	// TierPlain is fusion without the loop-nest optimizer: every loop
	// runs serially with an empty loop plan, nothing hoisted and nothing
	// strength-reduced. Differential tests diff it against TierOpt.
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

// Program is a compiled kernel.
type Program struct {
	F        *ir.Func
	nRegs    int
	nVecs    int // vector register file: one slot per intrinsic node and carried loop
	arenaLen int // registers of the frame arena (see compiler.reserve)
	consts   []constReg
	params   []int // register slot per parameter
	ops      []op
	result   *argRef
	fused    int // superinstructions formed
	hoisted  int // loop-invariant nodes moved to loop entry
	strength int // induction-variable nodes reduced to incremental adds
	chains   int // fusion chains of length ≥ 3 (load→op→…→store)
	parallel bool
	pool     sync.Pool

	// sched is the schedule the program was lowered from, and counts
	// every block's static count vector (see StaticCounts): Run, the
	// loop and if drivers and Count all apply these, so Count adds
	// exactly what Run adds.
	sched      *ir.Scheduled
	counts     map[*ir.Block][]CountDelta
	rootCounts []CountDelta // counts of the root block, which Run applies
	// countOnce guards the count-only state built on first use: the
	// count-invariance verdict and, for an admitted body, the skeleton
	// Count evaluates (see count.go).
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

// Parallel reports whether some loop of the program has a parallel
// plan: its iterations may shard across worker lanes when the machine
// grants more than one. A TierPlain program never shards.
func (p *Program) Parallel() bool { return p.parallel }

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
// times a loop iteration recycled its frame's arena in place
// (one per iteration of every loop a program runs, at either tier), slots
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
	// regs is the register file: a register per symbol, one per
	// constant operand of a bound intrinsic (written when the frame is
	// made), and the arena (see compiler.reserve).
	regs []vm.Value
	// vecs is the vector register file. Each intrinsic node owns one
	// slot and writes its vector result there; a register holding that
	// result refers to the slot. A slot is rewritten each time its node
	// runs, so a value that must outlive that (a loop-carried
	// accumulator, a lane partial, a returned vector) is copied out.
	vecs []vm.Vec
	m    *vm.Machine
	// arena accumulates loop-iteration arena reuses during one Run and
	// is flushed to arenaResets when the frame is returned to the pool.
	arena int64
	// sink is the destination of void nodes (stores): they and the
	// producers fused into them write here, and nothing reads it after.
	sink vm.Value
}

type op func(fr *frame) error

// evalFn evaluates one node into *out. out is the node's register, the
// frame's sink for a void node, or — for a producer fused into its
// consumer — the consumer's argument slot or the consumer's own
// destination. A result written into the destination, instead of
// returned through the consumer, is not copied once more.
type evalFn func(fr *frame, out *vm.Value) error

// CountDelta is one entry of a block's static count vector: executing
// the block's straight-line nodes once adds N to Key.
type CountDelta struct {
	Key string
	N   int64
}

// StaticCounts walks a schedule of f once and returns the static count
// vector of each of its blocks: the root, every loop body and every if
// arm, each key once, in first-appearance order. Every kept node counts
// in its own block, whatever the compiler later does with it (fused,
// hoisted, strength-reduced), so the interpreter's drivers, Count and
// the native generator all apply the one vector: the root's once per
// run, a body's scaled by its loop's trip count, an arm's when taken.
func StaticCounts(f *ir.Func, sched *ir.Scheduled) map[*ir.Block][]CountDelta {
	w := &countWalk{f: f, sched: sched, out: map[*ir.Block][]CountDelta{}}
	w.block(f.G.Root())
	return w.out
}

// LoopKey names a loop's per-loop iteration counter, "loop.#<id>",
// which the cost model reads to attribute a loop-carried chain.
func LoopKey(id int) string { return "loop.#" + strconv.Itoa(id) }

// countWalk is StaticCounts' state: ivs is the stack of enclosing loop
// variables, the innermost of which classifies scalar loads.
type countWalk struct {
	f     *ir.Func
	sched *ir.Scheduled
	ivs   []ir.Sym
	out   map[*ir.Block][]CountDelta
}

func (w *countWalk) block(b *ir.Block) {
	var v []CountDelta
	add := func(key string) {
		for i := range v {
			if v[i].Key == key {
				v[i].N++
				return
			}
		}
		v = append(v, CountDelta{key, 1})
	}
	for _, n := range w.sched.Keep[b] {
		d := n.Def
		switch d.Op {
		case ir.OpComment, ir.OpParam:
		case ir.OpLoop:
			body := d.Blocks[0]
			w.ivs = append(w.ivs, body.Params[0])
			w.block(body)
			w.ivs = w.ivs[:len(w.ivs)-1]
		case ir.OpIf:
			w.block(d.Blocks[0])
			w.block(d.Blocks[1])
			add(OpBranch)
		default:
			add(w.key(d))
		}
	}
	w.out[b] = v
}

// key picks the op name the cost model prices a simple node as.
func (w *countWalk) key(d *ir.Def) string {
	switch d.Op {
	case ir.OpALoad:
		if w.strided(d.Args[1]) {
			return OpScalarLoadStrided
		}
		return OpScalarLoad
	case ir.OpAStore:
		return OpScalarStore
	case ir.OpPtrAdd, ir.OpSel:
		return OpScalarALU
	case ir.OpConv:
		return OpScalarConv
	}
	if ir.IsIntrinsicOp(d.Op) {
		return d.Op
	}
	t := d.Typ
	switch d.Op {
	case ir.OpMul:
		if t.IsFloat() {
			return OpScalarFMul
		}
		return OpScalarMul
	case ir.OpDiv, ir.OpRem:
		if t.IsFloat() {
			return OpScalarFDiv
		}
		return OpScalarDiv
	case ir.OpAdd, ir.OpSub, ir.OpNeg, ir.OpMin, ir.OpMax:
		if t.IsFloat() {
			return OpScalarFP
		}
	}
	return OpScalarALU
}

// strided reports whether an index expression strides by the innermost
// loop variable with a multiplicative factor (iv*X appears as a subterm).
func (w *countWalk) strided(idx ir.Exp) bool {
	if len(w.ivs) == 0 {
		return false
	}
	iv := w.ivs[len(w.ivs)-1]
	var walk func(e ir.Exp, depth int) bool
	walk = func(e ir.Exp, depth int) bool {
		s, ok := e.(ir.Sym)
		if !ok || depth > 6 {
			return false
		}
		d, ok := w.f.G.Def(s)
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

// inline requests that a fused producer's evaluator replace the
// consumer's argument at position pos.
type inline struct {
	pos   int
	eval  evalFn
	chain int      // producers already folded into this evaluator
	addr  []ir.Exp // see valNode.addr
}

// valNode is a compiled simple (non-control) node, held back briefly by
// compileBlock so the next node may fuse it.
type valNode struct {
	eval  evalFn
	void  bool
	dst   int
	sym   ir.Sym
	chain int // fused producers folded into this node
	// addr, for a pointer add without a fused producer of its own,
	// holds its pointer and index operands: a bound load or store it
	// fuses into addresses memory from them directly (see compileLane).
	addr []ir.Exp
}

// asOp finalises a node that was not fused away.
func (v *valNode) asOp() op {
	eval := v.eval
	if v.void {
		return func(fr *frame) error { return eval(fr, &fr.sink) }
	}
	dst := v.dst
	return func(fr *frame) error { return eval(fr, &fr.regs[dst]) }
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

// load copies the operand straight into *dst, without the temporary a
// returned Value goes through.
func (a *argRef) load(fr *frame, dst *vm.Value) {
	if a.isConst {
		*dst = a.val
	} else {
		*dst = fr.regs[a.slot]
	}
}

type compiler struct {
	f     *ir.Func
	sched *ir.Scheduled
	slots map[int]int // sym id → register slot
	next  int
	// uses counts, per symbol, every reference from kept nodes' args,
	// block results and effect annotations; fusion requires exactly one.
	uses    map[int]int
	arena   int        // registers reserved for the frame arena
	consts  []constReg // constant operand registers
	vecNext int        // next free slot of the vector register file
	fuse    bool
	// tier is read only by compileLoop: it decides whether a loop gets a
	// loop plan and a parallel plan.
	tier     Tier
	fused    int
	hoisted  int
	strength int
	chains   int
	// skip marks nodes (by sym id) the loop optimizer has claimed:
	// compileBlock leaves them out of the body so the loop driver can
	// run them at entry (hoisted) or incrementally (strength-reduced).
	skip map[int]bool
	// prog is the program under construction; loop drivers keep a
	// backreference so parallel lanes can draw frames from its pool.
	prog *Program
}

// Compile lowers a staged function to an executable program at the
// default (fully optimized) tier. Staging errors surface here:
// intrinsics without executable semantics, unbound symbols, unsupported
// ops.
func Compile(f *ir.Func) (*Program, error) { return compile(f, TierOpt, true) }

// CompileTier compiles at a named tier (the compile cache keys on it).
func CompileTier(f *ir.Func, t Tier) (*Program, error) { return compile(f, t, true) }

// compile lowers f at tier t. fuse=false compiles every node on its own,
// the baseline fusion is diffed against in tests.
func compile(f *ir.Func, t Tier, fuse bool) (*Program, error) {
	sched := ir.Schedule(f)
	c := &compiler{f: f, sched: sched, slots: map[int]int{},
		uses: map[int]int{}, fuse: fuse, tier: t, skip: map[int]bool{}}
	c.countUses(f.G.Root())
	p := &Program{F: f, sched: sched, counts: StaticCounts(f, sched)}
	c.prog = p
	for _, prm := range f.Params {
		p.params = append(p.params, c.slot(prm))
	}
	ops, err := c.compileBlock(f.G.Root())
	if err != nil {
		return nil, fmt.Errorf("kernelc: %s: %w", f.Name, err)
	}
	p.ops = ops
	p.rootCounts = p.counts[f.G.Root()]
	if r := f.G.Root().Result; r != nil {
		ref, err := c.ref(r)
		if err != nil {
			return nil, fmt.Errorf("kernelc: %s: result: %w", f.Name, err)
		}
		p.result = &ref
	}
	p.nRegs = c.next
	p.nVecs = c.vecNext
	p.arenaLen = c.arena
	p.consts = c.consts
	p.fused = c.fused
	p.hoisted = c.hoisted
	p.strength = c.strength
	p.chains = c.chains
	arenaSlots.Add(int64(p.arenaLen))
	p.pool.New = func() any {
		poolNews.Add(1)
		fr := &frame{regs: make([]vm.Value, p.nRegs), vecs: make([]vm.Vec, p.nVecs)}
		for _, k := range p.consts {
			fr.regs[k.reg] = k.val
		}
		return fr
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

// reserve takes n consecutive registers for the frame arena: an
// unbound intrinsic's argument region, the operand register a fused
// producer evaluates into, a loop's derived save area. They are
// rewritten on every loop iteration instead of reallocated.
func (c *compiler) reserve(n int) int {
	r := c.next
	c.next += n
	c.arena += n
	return r
}

// constReg is a register that holds a constant operand.
type constReg struct {
	reg int
	val vm.Value
}

// constant returns a register holding the constant v. It is written
// when a frame is made, and nothing writes it after.
func (c *compiler) constant(v vm.Value) int {
	r := c.next
	c.next++
	c.consts = append(c.consts, constReg{r, v})
	return r
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

// compileBlock lowers one block's kept nodes to ops. A just-compiled
// simple node is held pending for one step so the next node may fuse
// it.
func (c *compiler) compileBlock(b *ir.Block) ([]op, error) {
	var ops []op
	var pending *valNode
	flush := func() {
		if pending != nil {
			if pending.chain >= 2 {
				c.chains++
			}
			ops = append(ops, pending.asOp())
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
				return nil, err
			}
			ops = append(ops, o)
		case ir.OpIf:
			flush()
			o, err := c.compileIf(n)
			if err != nil {
				return nil, err
			}
			ops = append(ops, o)
		default:
			var inl *inline
			if c.fuse && pending != nil && !pending.void && c.uses[pending.sym.ID] == 1 {
				if pos := fusablePos(d, pending.sym); pos >= 0 {
					inl = &inline{pos: pos, eval: pending.eval, chain: pending.chain, addr: pending.addr}
					pending = nil
					c.fused++
				}
			}
			flush()
			vn, err := c.compileSimple(n, inl)
			if err != nil {
				return nil, err
			}
			if inl != nil {
				vn.chain = inl.chain + 1
			}
			pending = vn
		}
	}
	flush()
	return ops, nil
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

func (c *compiler) valNode(n *ir.Node, eval evalFn) *valNode {
	void := n.Def.Typ == ir.TVoid
	dst := -1
	if !void {
		dst = c.slot(n.Sym)
	}
	return &valNode{eval: eval, void: void, dst: dst, sym: n.Sym}
}

// compileIntrinsic lowers an intrinsic call. One with a lane binding is
// bound to the frame (compileLane). Any other has its arguments gathered
// into an arena region of the register file, a fused producer
// evaluating straight into its argument slot, and calls
// vm.Intrinsic.Fn with the node's vector slot as the destination.
// Argument gathering is pure register reads, so running the producer
// after it is the same as running it first.
func (c *compiler) compileIntrinsic(n *ir.Node, inl *inline) (*valNode, error) {
	name := n.Def.Op
	in, ok := vm.Lookup(name)
	if !ok {
		// The paper's analog: LMS accepts the staged call, but the
		// native toolchain cannot execute it on this machine.
		return nil, fmt.Errorf("intrinsic %s has no executable semantic in the vm", name)
	}
	if in.Lane != nil {
		return c.compileLane(n, in.Lane, inl)
	}
	args, err := c.fusedRefs(n.Def.Args, inl)
	if err != nil {
		return nil, err
	}
	nArgs := len(args)
	off := c.reserve(nArgs)
	vs := c.vecNext
	c.vecNext++
	ie, pos := inlineParts(inl)
	fn := in.Fn
	eval := func(fr *frame, out *vm.Value) error {
		vals := fr.regs[off : off+nArgs]
		for i := range args {
			args[i].load(fr, &vals[i])
		}
		if pos >= 0 {
			if err := ie(fr, &vals[pos]); err != nil {
				return err
			}
		}
		v, err := fn(fr.m, vals, &fr.vecs[vs])
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		*out = v
		return nil
	}
	return c.valNode(n, eval), nil
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
	var accSlot, accVec, dst int
	if carried {
		accSlot = c.slot(body.Params[1])
		accVec = c.vecNext
		c.vecNext++
		dst = c.slot(n.Sym)
	}
	// At TierOpt the loop-nest optimizer claims invariant and affine
	// nodes before the body is lowered; compileBlock then skips them.
	// TierPlain keeps the empty plan.
	opt := c.tier != TierPlain
	var plan loopPlan
	if opt {
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
	bodyOps, err := c.compileBlock(body)
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
	hoistedOps, derivedOps, derSlots, err := c.lowerPlan(plan)
	if err != nil {
		return nil, err
	}
	nDer := len(derivedOps)
	saveOff := c.reserve(2 * nDer) // derived save/step area in the frame arena
	lc := &loopCode{
		prog: c.prog, args: args, iv: iv, carried: carried,
		accSlot: accSlot, accVec: accVec, dst: dst, next: next,
		bodyOps: bodyOps, bodyCounts: c.prog.counts[body],
		hoistedOps: hoistedOps, derivedOps: derivedOps,
		derSlots: derSlots, saveOff: saveOff, nDer: nDer,
		loopKey: LoopKey(n.Sym.ID),
	}
	if !opt {
		return lc.run, nil
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
		c.prog.parallel = true
		parEligible.Add(1)
	}
	return lc.run, nil
}

// loopCode is one loop's compiled driver state, shared by the serial
// loop and the parallel lanes. At TierPlain its plan is empty (no
// hoisted or derived ops) and par is nil.
type loopCode struct {
	prog    *Program
	args    []argRef // start, end, stride[, init]
	iv      int
	carried bool
	accSlot int
	accVec  int // the accumulator's own vector slot (see ownVec)
	dst     int
	next    argRef
	bodyOps []op
	// bodyCounts is the body's static count vector, applied once scaled
	// by the trip count.
	bodyCounts []CountDelta
	hoistedOps []op
	derivedOps []op
	derSlots   []int
	saveOff    int // derived save/step area in the frame arena
	nDer       int
	// loopKey is the per-loop iteration counter the cost model reads to
	// attribute the loop-carried dependency chain (see internal/machine).
	loopKey string
	par     *parPlan // nil when the loop is statically serial
}

// run is the loop driver of both tiers. Hoisted and strength-reduced
// nodes execute at loop entry (guarded by start < end, so zero-trip
// loops behave as before); they stay in the body's block, so
// bodyCounts counts them once per iteration and the dynamic count
// stream is identical to the plain tier's.
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
				fr.regs[lc.saveOff+j].I = fr.regs[s].I
			}
			fr.regs[lc.iv].I = start + stride
			for _, o := range lc.derivedOps {
				if err := o(fr); err != nil {
					return err
				}
			}
			for j, s := range lc.derSlots {
				fr.regs[lc.saveOff+lc.nDer+j].I = fr.regs[s].I - fr.regs[lc.saveOff+j].I
				fr.regs[s].I = fr.regs[lc.saveOff+j].I
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
				r.I = int64(int32(r.I + fr.regs[lc.saveOff+lc.nDer+j].I))
			}
		}
		for _, o := range lc.bodyOps {
			if err := o(fr); err != nil {
				return t, err
			}
		}
		if lc.carried {
			fr.regs[lc.accSlot] = ownVec(lc.next.get(fr), &fr.vecs[lc.accVec])
		}
		i += stride
	}
	return cnt, nil
}

// ownVec returns v with its register copied into slot, for a vector
// that must outlive the storage it refers to; other values pass
// through. A loop's accumulator is stored through it into the loop's
// own slot: the slot v refers to belongs to the body node that
// produced it, which rewrites it next iteration, possibly before the
// body's last read of the accumulator.
func ownVec(v vm.Value, slot *vm.Vec) vm.Value {
	if v.V != nil {
		*slot = *v.V
		v.V = slot
	}
	return v
}

// addCounts applies the loop's contribution to the dynamic op stream:
// one iteration count, the per-loop attribution key, and the body's
// static vector scaled by the trip count.
func (lc *loopCode) addCounts(m *vm.Machine, iters int64) {
	m.Counts.Add(OpLoopIter, iters)
	m.Counts.Add(lc.loopKey, iters)
	for _, cd := range lc.bodyCounts {
		m.Counts.Add(cd.Key, cd.N*iters)
	}
}

func (c *compiler) compileIf(n *ir.Node) (op, error) {
	cond, err := c.ref(n.Def.Args[0])
	if err != nil {
		return nil, err
	}
	thenB, elseB := n.Def.Blocks[0], n.Def.Blocks[1]
	thenOps, err := c.compileBlock(thenB)
	if err != nil {
		return nil, err
	}
	elseOps, err := c.compileBlock(elseB)
	if err != nil {
		return nil, err
	}
	thenCounts, elseCounts := c.prog.counts[thenB], c.prog.counts[elseB]
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
				fr.m.Counts.Add(cd.Key, cd.N)
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
				fr.m.Counts.Add(cd.Key, cd.N)
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
	ptrRef, idxRef := args[0], args[1]
	ie, pos := inlineParts(inl)
	eval := func(fr *frame, out *vm.Value) error {
		ptr := ptrRef.get(fr)
		idxV := idxRef.get(fr)
		if pos >= 0 {
			if err := ie(fr, out); err != nil {
				return err
			}
			if pos == 0 {
				ptr = *out
			} else {
				idxV = *out
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
	return c.valNode(n, eval), nil
}

func (c *compiler) compileAStore(n *ir.Node, inl *inline) (*valNode, error) {
	args, err := c.fusedRefs(n.Def.Args, inl)
	if err != nil {
		return nil, err
	}
	kind := n.Def.Args[2].Type().Kind
	ptrRef, idxRef, valRef := args[0], args[1], args[2]
	ie, pos := inlineParts(inl)
	// A store is void: out is the frame's sink, where a fused producer
	// leaves the operand it computes.
	eval := func(fr *frame, out *vm.Value) error {
		ptr := ptrRef.get(fr)
		idxV := idxRef.get(fr)
		v := valRef.get(fr)
		if pos >= 0 {
			if err := ie(fr, out); err != nil {
				return err
			}
			switch pos {
			case 0:
				ptr = *out
			case 1:
				idxV = *out
			default:
				v = *out
			}
		}
		if ptr.Mem == nil {
			return fmt.Errorf("astore through nil array")
		}
		idx := int(idxV.AsInt()) + ptr.Off
		if idx < 0 || idx >= ptr.Mem.Len() {
			return fmt.Errorf("astore index %d out of bounds [0,%d)", idx, ptr.Mem.Len())
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
		return nil
	}
	return c.valNode(n, eval), nil
}

func (c *compiler) compilePtrAdd(n *ir.Node, inl *inline) (*valNode, error) {
	args, err := c.fusedRefs(n.Def.Args, inl)
	if err != nil {
		return nil, err
	}
	ptrRef, idxRef := args[0], args[1]
	ie, pos := inlineParts(inl)
	// The pointer is written into the destination and its displacement
	// advanced there, in place.
	eval := func(fr *frame, out *vm.Value) error {
		switch pos {
		case 0:
			if err := ie(fr, out); err != nil {
				return err
			}
		case 1:
			if err := ie(fr, out); err != nil {
				return err
			}
			idx := out.AsInt()
			ptrRef.load(fr, out)
			out.Off += int(idx)
			return nil
		default:
			ptrRef.load(fr, out)
		}
		out.Off += int(idxRef.get(fr).AsInt())
		return nil
	}
	vn := c.valNode(n, eval)
	if inl == nil {
		vn.addr = n.Def.Args
	}
	return vn, nil
}

func (c *compiler) compileConv(n *ir.Node, inl *inline) (*valNode, error) {
	src, err := c.fusedRefs(n.Def.Args, inl)
	if err != nil {
		return nil, err
	}
	srcRef := src[0]
	to := n.Sym.Typ
	ie, pos := inlineParts(inl)
	eval := func(fr *frame, out *vm.Value) error {
		if pos < 0 {
			*out = convert(srcRef.get(fr), to)
			return nil
		}
		if err := ie(fr, out); err != nil {
			return err
		}
		*out = convert(*out, to)
		return nil
	}
	return c.valNode(n, eval), nil
}

func (c *compiler) compileSelect(n *ir.Node) (*valNode, error) {
	args, err := c.refs(n.Def.Args)
	if err != nil {
		return nil, err
	}
	condRef, aRef, bRef := args[0], args[1], args[2]
	eval := func(fr *frame, out *vm.Value) error {
		if condRef.get(fr).B {
			aRef.load(fr, out)
		} else {
			bRef.load(fr, out)
		}
		return nil
	}
	return c.valNode(n, eval), nil
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
		m.Counts.Add(cd.Key, cd.N)
	}
	var out vm.Value
	if p.result != nil {
		out = p.result.get(fr)
		if out.V != nil {
			// The frame's register file goes back to the pool.
			out = ownVec(out, new(vm.Vec))
		}
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
