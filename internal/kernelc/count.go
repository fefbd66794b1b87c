package kernelc

// The count proof and count-only evaluation (see the package doc): the
// backward slice that proves a body and builds its skeleton, the
// concrete skeleton evaluator, and the closed form for affine nests.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

// ErrNotCounted is wrapped by every Count refusal: the caller runs the
// program instead, so the counts, and any error with its text, come
// from a real execution.
var ErrNotCounted = errors.New("not counted without execution")

func notCounted(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrNotCounted}, a...)...)
}

// Proof returns the program's count-invariance verdict, computed once
// per program: "" when admitted, otherwise the first operand that
// steers control or addressing with a value read from memory, machine
// state or a float or vector parameter (see buildCountPlan).
func (p *Program) Proof() string {
	p.prepareCount()
	return p.proof
}

func (p *Program) prepareCount() {
	p.countOnce.Do(func() {
		p.skeleton, p.proof, p.refusal = buildCountPlan(p)
	})
}

// Count adds to m.Counts exactly the counts Run(m, args...) would add,
// without executing the program, and returns Run's error for a
// non-positive loop stride. It returns an error wrapping ErrNotCounted,
// with m.Counts untouched, whenever it cannot prove the outcome (see
// the package doc). Like Run it is safe to call concurrently.
func (p *Program) Count(m *vm.Machine, args ...vm.Value) error {
	if len(args) != len(p.params) {
		return fmt.Errorf("kernelc: %s: got %d arguments, want %d",
			p.F.Name, len(args), len(p.params))
	}
	p.prepareCount()
	cp := p.skeleton
	var err error
	switch {
	case cp == nil:
		err = notCounted("%s", p.refusal)
	case m.Cache != nil:
		err = notCounted("a cache simulator must see every access")
	default:
		for i, a := range args {
			if k := p.F.Params[i].Typ.Kind; a.Kind != k {
				err = notCounted("argument %d is %v, parameter is %v", i, a.Kind, k)
				break
			}
		}
	}
	if err == nil {
		c := &counting{m: m, regs: make([]vm.Value, cp.nSlots),
			vecs: make([]vm.Vec, cp.nVecs), vals: make([]vm.Value, cp.maxArgs),
			counts: make(countRegs, len(p.table.Keys))}
		for i, slot := range cp.params {
			c.regs[slot] = args[i]
		}
		if err = c.block(cp.root); err == nil {
			c.counts.add(cp.root.counts, 1)
			p.table.flush(m.Counts, c.counts)
			return nil
		}
	}
	return fmt.Errorf("kernelc: %s: %w", p.F.Name, err)
}

// --- the skeleton ------------------------------------------------------------

// countPlan is a program's skeleton: the nodes Count evaluates, over a
// register file of its own.
type countPlan struct {
	root    *cblock
	params  []int // register per parameter
	nSlots  int
	nVecs   int // vector slots: one per needed intrinsic and live accumulator
	maxArgs int
}

// cblock is one block's skeleton steps and its static count vector.
type cblock struct {
	nodes  []*cnode
	counts []SlotCount
}

type ckind uint8

const (
	cEval   ckind = iota // a value some sink needs
	cAccess              // a load or store: a bounds check
	cLoop
	cIf
)

// cref locates a skeleton operand: a constant or a register.
type cref struct {
	isConst bool
	val     vm.Value
	slot    int
}

// cnode is one skeleton step.
type cnode struct {
	kind ckind
	op   string
	typ  ir.Type
	args []cref
	dst  int // result register; -1 when nothing reads the result

	// cEval: the interpreter's semantics for the node, and the vector
	// slot an intrinsic writes its result to (-1 for other nodes).
	fn semantics
	vs int

	// cAccess: an aload/astore (scalar; args ptr, idx; elem is the
	// element kind moved) or a memory intrinsic (args ptr; width bytes
	// at the pointer's element offset times scale, 0 meaning the
	// buffer's element size).
	scalar, store bool
	elem          ir.Kind
	width, scale  int

	// cLoop: args start, end, stride[, init]. accLive marks a carried
	// accumulator the skeleton needs, evolved through acc by next; a
	// vector accumulator is kept in vector slot accVec.
	iv, acc  int
	accVec   int
	accLive  bool
	next     cref
	body     *cblock
	key      string      // the loop's attribution key, for refusals
	trip     []SlotCount // see CountTable.Trip
	closable bool        // no if and no live accumulator anywhere in the nest

	// cIf: args cond; res holds each arm's result when dst >= 0.
	arms [2]*cblock
	res  [2]cref
}

// planBuilder derives the skeleton from the schedule Compile lowered.
type planBuilder struct {
	p       *Program
	params  map[int]ir.Sym   // parameter by symbol id
	defs    map[int]*ir.Node // node by symbol id
	accOf   map[int]*ir.Node // loop by its accumulator parameter's id
	slots   map[int]int
	needed  map[int]bool
	work    []int
	maxArgs int
	nVecs   int
}

// buildCountPlan is the count-invariance proof and the skeleton builder
// in one backward slice over the graph. Its sinks are the operands
// that steer control or addressing (sinkOperands); every value they
// depend on is needed, through definitions, loop accumulators and if
// results. The body is admitted (proof "") only if nothing needed is
// read from memory (an aload, or an intrinsic that readsState) or is a
// float or vector parameter: then the count stream and the error
// outcome depend only on the keyed arguments (see CountKey), since the
// interpreter's scalar ops are total and the errors left are address
// and stride errors steered by the same needed values. An admitted body
// gets a skeleton that evaluates exactly the needed values; where the
// skeleton cannot bound an operand, refusal says why and only Count
// refuses.
func buildCountPlan(p *Program) (cp *countPlan, proof, refusal string) {
	b := &planBuilder{p: p, params: map[int]ir.Sym{}, defs: map[int]*ir.Node{},
		accOf: map[int]*ir.Node{}, slots: map[int]int{}, needed: map[int]bool{}}
	for _, prm := range p.F.Params {
		b.params[prm.ID] = prm
	}
	root := p.F.G.Root()
	b.index(root)
	if proof = b.prove(root); proof != "" {
		return nil, proof, "count proof: " + proof
	}
	blk, why := b.block(root)
	if why != "" {
		return nil, "", why
	}
	cp = &countPlan{root: blk}
	for _, prm := range p.F.Params {
		cp.params = append(cp.params, b.slot(prm))
	}
	cp.nSlots, cp.nVecs, cp.maxArgs = len(b.slots), b.nVecs, b.maxArgs
	return cp, "", ""
}

func (b *planBuilder) index(blk *ir.Block) {
	for _, n := range blk.Nodes {
		b.defs[n.Sym.ID] = n
		if n.Def.Op == ir.OpLoop && len(n.Def.Args) == 4 {
			b.accOf[n.Def.Blocks[0].Params[1].ID] = n
		}
		for _, sub := range n.Def.Blocks {
			b.index(sub)
		}
	}
}

func (b *planBuilder) need(e ir.Exp) {
	if s, ok := e.(ir.Sym); ok && !b.needed[s.ID] {
		b.needed[s.ID] = true
		b.work = append(b.work, s.ID)
	}
}

// ptrArgs reports whether an intrinsic takes a pointer, and whether
// argument 0 is its only one.
func ptrArgs(d *ir.Def) (has, onlyFirst bool) {
	onlyFirst = true
	for i, a := range d.Args {
		if a.Type().Kind == ir.KindPtr {
			has = true
			onlyFirst = onlyFirst && i == 0
		}
	}
	return has, onlyFirst
}

// prove marks every sink operand needed, in schedule order, and drains
// the slice behind each before the next: what was needed before is
// already known to be free of data, so the first operand whose slice
// reaches data is the one reported. It walks the nodes the schedule
// keeps, the ones Run executes: a dead node steers nothing.
func (b *planBuilder) prove(blk *ir.Block) string {
	for _, n := range b.p.sched.Keep[blk] {
		d := n.Def
		for _, i := range sinkOperands(d) {
			b.need(d.Args[i])
			for len(b.work) > 0 {
				id := b.work[len(b.work)-1]
				b.work = b.work[:len(b.work)-1]
				if src := b.pull(id); src != "" {
					return fmt.Sprintf("%v (%s operand %d of %s) is data-dependent: %s",
						d.Args[i], d.Op, i, n.Sym, src)
				}
			}
		}
		for _, sub := range d.Blocks {
			if why := b.prove(sub); why != "" {
				return why
			}
		}
	}
	return ""
}

// pull marks what a needed symbol's value depends on, and names the
// symbol when its value is data: read from memory or machine state, or
// a parameter the count key leaves out.
func (b *planBuilder) pull(id int) string {
	if n, ok := b.accOf[id]; ok {
		b.need(n.Def.Args[3])
		b.need(n.Def.Blocks[0].Result)
		return ""
	}
	if prm, ok := b.params[id]; ok {
		if !keyedKind(prm.Typ.Kind) {
			return fmt.Sprintf("parameter %s (%v) is not in the count key", prm, prm.Typ)
		}
		return ""
	}
	n, ok := b.defs[id]
	if !ok {
		return "" // an induction variable
	}
	d := n.Def
	switch {
	case d.Op == ir.OpLoop:
		if len(d.Args) == 4 {
			b.need(d.Blocks[0].Params[1])
		}
	case d.Op == ir.OpIf:
		b.need(d.Args[0])
		for _, blk := range d.Blocks {
			b.need(blk.Result)
		}
	case d.Op == ir.OpALoad || (ir.IsIntrinsicOp(d.Op) && readsState(d)):
		return fmt.Sprintf("%s (%s) reads memory or machine state", n.Sym, d.Op)
	default:
		for _, a := range d.Args {
			b.need(a)
		}
	}
	return ""
}

func (b *planBuilder) slot(s ir.Sym) int {
	if i, ok := b.slots[s.ID]; ok {
		return i
	}
	i := len(b.slots)
	b.slots[s.ID] = i
	return i
}

func (b *planBuilder) ref(e ir.Exp) cref {
	if k, ok := e.(ir.Const); ok {
		return cref{isConst: true, val: constValue(k)}
	}
	return cref{slot: b.slot(e.(ir.Sym))}
}

func (b *planBuilder) refs(args []ir.Exp) []cref {
	out := make([]cref, len(args))
	for i, a := range args {
		out[i] = b.ref(a)
	}
	if len(out) > b.maxArgs {
		b.maxArgs = len(out)
	}
	return out
}

// block lowers one block's kept nodes to skeleton steps.
func (b *planBuilder) block(blk *ir.Block) (*cblock, string) {
	out := &cblock{counts: b.p.table.Block(blk)}
	for _, n := range b.p.sched.Keep[blk] {
		d := n.Def
		cn := &cnode{op: d.Op, typ: n.Sym.Typ, dst: -1}
		acc, mem := vm.AccessOf(d.Op)
		if ir.IsIntrinsicOp(d.Op) {
			if hasPtr, onlyFirst := ptrArgs(d); hasPtr && (!mem || !onlyFirst) {
				return nil, fmt.Sprintf("%s of %s reaches memory through operands the skeleton cannot bound", d.Op, n.Sym)
			}
		}
		switch {
		case d.Op == ir.OpComment || d.Op == ir.OpParam:
			continue
		case d.Op == ir.OpLoop:
			body := d.Blocks[0]
			if b.needed[n.Sym.ID] && len(d.Args) != 4 {
				return nil, fmt.Sprintf("loop %s has no value, yet steers control", n.Sym)
			}
			cn.kind, cn.args, cn.key = cLoop, b.refs(d.Args[:3]), LoopKey(n.Sym.ID)
			cn.trip = b.p.table.Trip(n)
			cn.iv = b.slot(body.Params[0])
			if len(d.Args) == 4 && b.needed[body.Params[1].ID] {
				cn.accLive, cn.acc, cn.accVec = true, b.slot(body.Params[1]), b.nVecs
				b.nVecs++
				cn.args = append(cn.args, b.ref(d.Args[3]))
				cn.next = b.ref(body.Result)
				if b.needed[n.Sym.ID] {
					cn.dst = b.slot(n.Sym)
				}
			}
			var why string
			if cn.body, why = b.block(body); why != "" {
				return nil, why
			}
			cn.closable = !cn.accLive
			for _, sub := range cn.body.nodes {
				if sub.kind == cIf || (sub.kind == cLoop && !sub.closable) {
					cn.closable = false
				}
			}
		case d.Op == ir.OpIf:
			cn.kind, cn.args = cIf, b.refs(d.Args[:1])
			for i, arm := range d.Blocks {
				var why string
				if cn.arms[i], why = b.block(arm); why != "" {
					return nil, why
				}
			}
			if b.needed[n.Sym.ID] {
				if d.Blocks[0].Result == nil || d.Blocks[1].Result == nil {
					return nil, fmt.Sprintf("if %s steers control but an arm has no result", n.Sym)
				}
				cn.dst = b.slot(n.Sym)
				cn.res = [2]cref{b.ref(d.Blocks[0].Result), b.ref(d.Blocks[1].Result)}
			}
		case d.Op == ir.OpALoad || d.Op == ir.OpAStore:
			cn.kind, cn.args, cn.scalar = cAccess, b.refs(d.Args[:2]), true
			cn.store = d.Op == ir.OpAStore
			cn.elem = n.Sym.Typ.Kind
			if cn.store {
				cn.elem = d.Args[2].Type().Kind
			}
		case mem:
			if acc.Bytes == 0 {
				continue
			}
			cn.kind, cn.args = cAccess, b.refs(d.Args[:1])
			cn.width, cn.scale = acc.Bytes, acc.Scale
		case !b.needed[n.Sym.ID]:
			continue
		default:
			fn, why := evalSemantics(n)
			if why != "" {
				return nil, why
			}
			cn.kind, cn.args, cn.fn, cn.dst, cn.vs = cEval, b.refs(d.Args), fn, b.slot(n.Sym), -1
			if ir.IsIntrinsicOp(d.Op) {
				cn.vs = b.nVecs
				b.nVecs++
			}
		}
		out.nodes = append(out.nodes, cn)
	}
	return out, ""
}

// semantics evaluates one skeleton node; it has the shape of
// vm.Intrinsic.Fn, and only intrinsics use dst.
type semantics func(m *vm.Machine, vals []vm.Value, dst *vm.Vec) (vm.Value, error)

// evalSemantics returns the interpreter's semantics for a needed node:
// the same scalar, conversion and intrinsic functions Run applies.
func evalSemantics(n *ir.Node) (semantics, string) {
	d := n.Def
	switch d.Op {
	case ir.OpPtrAdd:
		return func(_ *vm.Machine, v []vm.Value, _ *vm.Vec) (vm.Value, error) {
			ptr := v[0]
			ptr.Off += int(v[1].AsInt())
			return ptr, nil
		}, ""
	case ir.OpConv:
		to := n.Sym.Typ
		return func(_ *vm.Machine, v []vm.Value, _ *vm.Vec) (vm.Value, error) { return convert(v[0], to), nil }, ""
	case ir.OpSel:
		return func(_ *vm.Machine, v []vm.Value, _ *vm.Vec) (vm.Value, error) {
			if v[0].B {
				return v[1], nil
			}
			return v[2], nil
		}, ""
	}
	if ir.IsIntrinsicOp(d.Op) {
		in, ok := vm.Lookup(d.Op)
		if !ok {
			return nil, fmt.Sprintf("intrinsic %s has no executable semantic in the vm", d.Op)
		}
		return in.Fn, ""
	}
	switch len(d.Args) {
	case 1:
		fn, err := unaryFn(d.Op, d.Typ)
		if err != nil {
			return nil, err.Error()
		}
		return func(_ *vm.Machine, v []vm.Value, _ *vm.Vec) (vm.Value, error) { return fn(v[0]), nil }, ""
	case 2:
		opT := d.Typ
		if isCmp(d.Op) {
			opT = d.Args[0].Type()
		}
		fn, err := binaryFn(d.Op, opT)
		if err != nil {
			return nil, err.Error()
		}
		return func(_ *vm.Machine, v []vm.Value, _ *vm.Vec) (vm.Value, error) { return fn(v[0], v[1]), nil }, ""
	}
	return nil, fmt.Sprintf("scalar op %s with %d args", d.Op, len(d.Args))
}

// --- evaluation --------------------------------------------------------------

// maxVars bounds the loop depth of one closed-form region.
const maxVars = 8

// counting is one Count call's state.
type counting struct {
	m      *vm.Machine
	regs   []vm.Value
	vecs   []vm.Vec   // vector register file (see frame.vecs)
	vals   []vm.Value // argument scratch
	counts countRegs  // flushed to m.Counts only on success

	// Closed-form state: the symbolic registers written in the current
	// region (sdef[slot] == epoch), the region's trip counts, and the
	// counts it will add once every check in it has passed.
	sregs []sval
	sdef  []uint32
	epoch uint32
	nv    int
	trips [maxVars]int64
	pend  []pendTrip
}

// pendTrip is a trip vector a closed-form region will apply, scaled by
// k.
type pendTrip struct {
	v []SlotCount
	k int64
}

// vec returns vector slot i, or nil for a node without one.
func (c *counting) vec(i int) *vm.Vec {
	if i < 0 {
		return nil
	}
	return &c.vecs[i]
}

func (c *counting) get(r cref) vm.Value {
	if r.isConst {
		return r.val
	}
	return c.regs[r.slot]
}

// block evaluates one block of the skeleton concretely.
func (c *counting) block(b *cblock) error {
	for _, n := range b.nodes {
		switch n.kind {
		case cEval:
			vals := c.vals[:len(n.args)]
			for i, a := range n.args {
				vals[i] = c.get(a)
			}
			v, err := n.fn(c.m, vals, c.vec(n.vs))
			if err != nil {
				return notCounted("%s: %v", n.op, err)
			}
			c.regs[n.dst] = v
		case cAccess:
			ptr := c.get(n.args[0])
			if ptr.Mem == nil {
				return notCounted("%s through a nil pointer", n.op)
			}
			off := int64(ptr.Off)
			if n.scalar {
				off = int64(int(c.get(n.args[1]).AsInt()) + ptr.Off)
			}
			if why := n.outOfBounds(ptr.Mem, off, off); why != "" {
				return notCounted("%s", why)
			}
		case cLoop:
			if err := c.loop(n); err != nil {
				return err
			}
		case cIf:
			arm := 1
			if c.get(n.args[0]).B {
				arm = 0
			}
			if err := c.block(n.arms[arm]); err != nil {
				return err
			}
			c.counts.add(n.arms[arm].counts, 1)
			if n.dst >= 0 {
				c.regs[n.dst] = c.get(n.res[arm])
			}
		}
	}
	return nil
}

// loop runs one loop of the skeleton: in closed form when its nest
// allows, otherwise iteration by iteration.
func (c *counting) loop(n *cnode) error {
	start := c.get(n.args[0]).AsInt()
	end := c.get(n.args[1]).AsInt()
	stride := c.get(n.args[2]).AsInt()
	if stride <= 0 {
		return fmt.Errorf("forloop stride %d must be positive", stride)
	}
	if n.accLive {
		c.regs[n.acc] = c.get(n.args[3])
	}
	iters, ok := tripCount(start, end, stride)
	if !ok {
		return notCounted("loop %s: trip count overflows", n.key)
	}
	closed := false
	if iters > 0 && n.closable {
		var err error
		if closed, err = c.closeLoop(n, start, stride, iters); err != nil {
			return err
		}
	}
	for t := int64(0); !closed && t < iters; t++ {
		c.regs[n.iv] = vm.Value{Kind: ir.KindI32, I: start + t*stride}
		if err := c.block(n.body); err != nil {
			return err
		}
		if n.accLive {
			c.regs[n.acc] = ownVec(c.get(n.next), &c.vecs[n.accVec])
		}
	}
	c.counts.add(n.trip, iters)
	if n.dst >= 0 {
		c.regs[n.dst] = c.regs[n.acc]
	}
	return nil
}

// tripCount is the drivers' trip count, false when it overflows.
func tripCount(start, end, stride int64) (int64, bool) {
	if start >= end {
		return 0, true
	}
	d, ok := sub64(end, start)
	if !ok {
		return 0, false
	}
	t := d / stride
	if d%stride != 0 {
		t++
	}
	return t, true
}

// outOfBounds checks accesses at element offsets lo..hi of buf against
// n's footprint and returns why they fail ("" when all are in range).
// Element types the interpreter's scalar accessors cannot move are
// refused too: Run would panic, not fail.
func (n *cnode) outOfBounds(buf *vm.Buffer, lo, hi int64) string {
	if n.scalar {
		if !scalarAccessOK(n.elem, buf.Prim, n.store) {
			return fmt.Sprintf("%s of %v through a %v buffer", n.op, n.elem, buf.Prim)
		}
		if lo < 0 || hi >= int64(buf.Len()) {
			return fmt.Sprintf("%s index range [%d,%d] leaves [0,%d)", n.op, lo, hi, buf.Len())
		}
		return ""
	}
	scale := int64(n.scale)
	if scale == 0 {
		scale = int64(buf.Prim.Bits() / 8)
	}
	blo, ok1 := mul64(lo, scale)
	bhi, ok2 := mul64(hi, scale)
	if scale == 0 || !ok1 || !ok2 || blo < 0 || bhi > int64(len(buf.Data))-int64(n.width) {
		return fmt.Sprintf("%s byte range [%d,%d+%d) leaves a %d-byte buffer",
			n.op, blo, bhi, n.width, len(buf.Data))
	}
	return ""
}

// scalarAccessOK reports whether aload/astore can move a value of kind
// through a buffer of prim without the accessor panicking.
func scalarAccessOK(kind ir.Kind, prim isa.Prim, store bool) bool {
	switch kind {
	case ir.KindF32, ir.KindF64:
		bits := prim.Bits()
		if store {
			return bits == 32 || bits == 64
		}
		if kind == ir.KindF32 {
			return bits >= 32
		}
		return bits >= 64
	}
	return prim >= isa.PrimI8 && prim <= isa.PrimU64
}

// --- closed form -------------------------------------------------------------

// sval is a skeleton value inside a closed-form region: concrete, an
// exact affine function of the region's trip indices (an i32/i64
// integer, or a pointer's element offset), or unknown (the zero value).
type sval struct {
	st uint8
	v  vm.Value // sConc: the value; sAff: its kind, and Mem for pointers
	a  affine
}

const (
	sUnknown uint8 = iota
	sConc
	sAff
)

// affine is c + Σ k[j]·t_j over the region's trip indices t_j ∈
// [0, trips[j]).
type affine struct {
	c int64
	k [maxVars]int64
}

func conc(v vm.Value) sval { return sval{st: sConc, v: v} }

func (c *counting) sget(r cref) sval {
	if r.isConst {
		return conc(r.val)
	}
	if c.sdef[r.slot] == c.epoch {
		return c.sregs[r.slot]
	}
	return conc(c.regs[r.slot])
}

func (c *counting) sset(slot int, v sval) {
	c.sregs[slot] = v
	c.sdef[slot] = c.epoch
}

// closeLoop tries to evaluate a loop entered with iters ≥ 1 trips in
// closed form. It returns false (nothing applied) when some value the
// nest needs is not affine, a nested trip count varies, a nested stride
// is not positive, or arithmetic overflows: the caller then iterates,
// reaching any error in Run's order. An access out of range anywhere in
// the iteration box is a refusal.
func (c *counting) closeLoop(n *cnode, start, stride, iters int64) (bool, error) {
	if c.sregs == nil {
		c.sregs = make([]sval, len(c.regs))
		c.sdef = make([]uint32, len(c.regs))
	}
	c.epoch++
	c.nv, c.trips[0] = 1, iters
	c.pend = c.pend[:0]
	iv := affine{c: start}
	iv.k[0] = stride
	c.sset(n.iv, c.mkInt(ir.KindI32, iv))
	ok, err := c.closeBlock(n.body, iters)
	if !ok || err != nil {
		return false, err
	}
	for _, pt := range c.pend {
		c.counts.add(pt.v, pt.k)
	}
	return true, nil
}

// closeBlock evaluates a block once for the whole box; p is how many
// times the block executes.
func (c *counting) closeBlock(b *cblock, p int64) (bool, error) {
	for _, n := range b.nodes {
		switch n.kind {
		case cEval:
			c.sset(n.dst, c.symEval(n))
		case cAccess:
			if ok, err := c.symAccess(n); !ok || err != nil {
				return ok, err
			}
		case cLoop:
			if ok, err := c.closeInner(n, p); !ok || err != nil {
				return ok, err
			}
		default:
			return false, nil
		}
	}
	return true, nil
}

// closeInner closes a nested loop whose trip count is the same at every
// point of the enclosing box.
func (c *counting) closeInner(n *cnode, p int64) (bool, error) {
	sd := c.sget(n.args[2])
	if sd.st != sConc || sd.v.AsInt() <= 0 || c.nv == maxVars {
		return false, nil
	}
	stride := sd.v.AsInt()
	start, ok1 := c.intForm(c.sget(n.args[0]))
	end, ok2 := c.intForm(c.sget(n.args[1]))
	if !ok1 || !ok2 || start.k != end.k {
		return false, nil
	}
	d, ok := sub64(end.c, start.c)
	if !ok {
		return false, nil
	}
	trips, _ := tripCount(0, d, stride)
	// Each of the p executions adds the loop's counts once; wrapping
	// products equal the wrapped sum of p such additions.
	mult := trips * p
	c.pend = append(c.pend, pendTrip{n.trip, mult})
	if trips == 0 {
		return true, nil
	}
	iv := start
	iv.k[c.nv] = stride
	c.trips[c.nv] = trips
	c.nv++
	c.sset(n.iv, c.mkInt(ir.KindI32, iv))
	ok, err := c.closeBlock(n.body, mult)
	c.nv--
	return ok, err
}

// symAccess checks an access at every point of the box: false when its
// offset is not affine, a refusal when any point is out of range.
func (c *counting) symAccess(n *cnode) (bool, error) {
	ptr := c.sget(n.args[0])
	if ptr.st == sUnknown {
		return false, nil
	}
	if ptr.v.Mem == nil {
		return false, notCounted("%s through a nil pointer", n.op)
	}
	off := ptr.a
	if ptr.st == sConc {
		off = affine{c: int64(ptr.v.Off)}
	}
	if n.scalar {
		idx, ok := c.intForm(c.sget(n.args[1]))
		if !ok {
			return false, nil
		}
		if off, ok = c.add(off, idx, 1); !ok {
			return false, nil
		}
	}
	lo, hi, ok := c.span(off)
	if !ok {
		return false, nil
	}
	if why := n.outOfBounds(ptr.v.Mem, lo, hi); why != "" {
		return false, notCounted("%s", why)
	}
	return true, nil
}

// symEval evaluates a needed node over the box: concretely when its
// operands are concrete, as an affine function for the linear integer
// and pointer ops, and as unknown otherwise.
func (c *counting) symEval(n *cnode) sval {
	var args [3]sval
	allConc := true
	for i, r := range n.args {
		a := c.sget(r)
		if a.st == sUnknown {
			return sval{}
		}
		if i < len(args) {
			args[i] = a
		}
		allConc = allConc && a.st == sConc
	}
	if allConc {
		vals := c.vals[:len(n.args)]
		for i, r := range n.args {
			vals[i] = c.sget(r).v
		}
		v, err := n.fn(c.m, vals, c.vec(n.vs))
		if err != nil {
			return sval{}
		}
		return conc(v)
	}
	x, y := args[0], args[1]
	kind := n.typ.Kind
	switch n.op {
	case ir.OpAdd, ir.OpSub:
		a, ok1 := c.intForm(x)
		b, ok2 := c.intForm(y)
		if !ok1 || !ok2 {
			return sval{}
		}
		sign := int64(1)
		if n.op == ir.OpSub {
			sign = -1
		}
		if r, ok := c.add(a, b, sign); ok {
			return c.mkInt(kind, r)
		}
	case ir.OpMul:
		if x.st == sConc {
			x, y = y, x
		}
		if a, ok := c.intForm(x); ok && y.st == sConc && isIntKind(y.v.Kind) {
			if r, ok := c.scale(a, y.v.AsInt()); ok {
				return c.mkInt(kind, r)
			}
		}
	case ir.OpShl:
		if a, ok := c.intForm(x); ok && y.st == sConc {
			if s := y.v.AsInt() & 63; s < 62 {
				if r, ok := c.scale(a, 1<<s); ok {
					return c.mkInt(kind, r)
				}
			}
		}
	case ir.OpShr:
		// An arithmetic shift of an exact multiple of 2^s is exact
		// division, so the result stays affine.
		if a, ok := c.intForm(x); ok && y.st == sConc && (kind == ir.KindI32 || kind == ir.KindI64) {
			s := y.v.AsInt() & 63
			mask := int64(1)<<s - 1
			exact := s < 62 && a.c&mask == 0
			for j := 0; j < c.nv && exact; j++ {
				exact = a.k[j]&mask == 0
			}
			if exact {
				r := affine{c: a.c >> s}
				for j := 0; j < c.nv; j++ {
					r.k[j] = a.k[j] >> s
				}
				return c.mkInt(kind, r)
			}
		}
	case ir.OpNeg:
		if a, ok := c.intForm(x); ok {
			if r, ok := c.scale(a, -1); ok {
				return c.mkInt(kind, r)
			}
		}
	case ir.OpConv:
		if a, ok := c.intForm(x); ok {
			return c.mkInt(kind, a)
		}
	case ir.OpPtrAdd:
		if x.v.Kind != ir.KindPtr || x.v.Mem == nil {
			return sval{}
		}
		off := x.a
		if x.st == sConc {
			off = affine{c: int64(x.v.Off)}
		}
		if idx, ok := c.intForm(y); ok {
			if r, ok := c.add(off, idx, 1); ok {
				return c.mkPtr(x.v.Mem, r)
			}
		}
	case ir.OpSel:
		if x.st == sConc {
			if x.v.B {
				return args[1]
			}
			return args[2]
		}
	}
	return sval{}
}

func isIntKind(k ir.Kind) bool {
	return k != ir.KindPtr && k != ir.KindBool && (ir.Type{Kind: k}).IsInteger()
}

// intForm views an integer skeleton value as an affine form: a
// concrete integer as a constant (its AsInt, as the interpreter reads
// it), an affine one as itself.
func (c *counting) intForm(v sval) (affine, bool) {
	switch {
	case v.st == sConc && isIntKind(v.v.Kind):
		return affine{c: v.v.AsInt()}, true
	case v.st == sAff && v.v.Kind != ir.KindPtr:
		return v.a, true
	}
	return affine{}, false
}

// mkInt types an affine result: concrete when no trip index remains,
// affine when every value over the box fits the kind, so the
// interpreter's truncation is the identity; unknown otherwise.
func (c *counting) mkInt(kind ir.Kind, a affine) sval {
	lo, hi, ok := c.span(a)
	switch {
	case !ok:
		return sval{}
	case kind == ir.KindI32:
		if lo < math.MinInt32 || hi > math.MaxInt32 {
			return sval{}
		}
	case kind != ir.KindI64:
		return sval{}
	}
	if c.constant(a) {
		return conc(vm.Value{Kind: kind, I: a.c})
	}
	return sval{st: sAff, v: vm.Value{Kind: kind}, a: a}
}

func (c *counting) mkPtr(mem *vm.Buffer, a affine) sval {
	if _, _, ok := c.span(a); !ok {
		return sval{}
	}
	if c.constant(a) {
		return conc(vm.PtrValue(mem, int(a.c)))
	}
	return sval{st: sAff, v: vm.Value{Kind: ir.KindPtr, Mem: mem}, a: a}
}

func (c *counting) constant(a affine) bool {
	for j := 0; j < c.nv; j++ {
		if a.k[j] != 0 {
			return false
		}
	}
	return true
}

// span returns an affine form's minimum and maximum over the box.
func (c *counting) span(a affine) (lo, hi int64, ok bool) {
	lo, hi = a.c, a.c
	for j := 0; j < c.nv; j++ {
		d, ok := mul64(a.k[j], c.trips[j]-1)
		if !ok {
			return 0, 0, false
		}
		if d < 0 {
			lo, ok = add64(lo, d)
		} else {
			hi, ok = add64(hi, d)
		}
		if !ok {
			return 0, 0, false
		}
	}
	return lo, hi, true
}

// add returns a + sign·b.
func (c *counting) add(a, b affine, sign int64) (affine, bool) {
	b, ok := c.scale(b, sign)
	if !ok {
		return affine{}, false
	}
	r := affine{}
	if r.c, ok = add64(a.c, b.c); !ok {
		return affine{}, false
	}
	for j := 0; j < c.nv; j++ {
		if r.k[j], ok = add64(a.k[j], b.k[j]); !ok {
			return affine{}, false
		}
	}
	return r, true
}

func (c *counting) scale(a affine, s int64) (affine, bool) {
	r := affine{}
	var ok bool
	if r.c, ok = mul64(a.c, s); !ok {
		return affine{}, false
	}
	for j := 0; j < c.nv; j++ {
		if r.k[j], ok = mul64(a.k[j], s); !ok {
			return affine{}, false
		}
	}
	return r, true
}

func add64(a, b int64) (int64, bool) {
	s := a + b
	return s, (a >= 0) != (b >= 0) || (s >= 0) == (a >= 0)
}

func sub64(a, b int64) (int64, bool) {
	if b == math.MinInt64 {
		return 0, false
	}
	return add64(a, -b)
}

func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
		return 0, false
	}
	return p, true
}
