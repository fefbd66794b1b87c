package kernelc

import (
	"repro/internal/ir"
	"repro/internal/vm"
)

// CountTable is a program's one count table. Keys holds every op name
// an execution can count — each key of the blocks' static count vectors
// (StaticCounts) and each loop's iteration and attribution keys — once,
// in the order one walk of the schedule meets them. Every vector names
// its keys by slot, an index into Keys, so a run adds into dense counts
// by slot instead of a string-keyed map, and one flush per call moves
// what it touched into the machine's counter. The interpreter's frames
// and Count add into count registers (countRegs), a native plugin into
// the []int64 its host passes it (Flush).
type CountTable struct {
	Keys   []string
	blocks map[*ir.Block][]SlotCount
	trips  map[*ir.Node][]SlotCount
}

// SlotCount is one entry of a vector over a CountTable: applying the
// vector adds N to slot Slot, times the trip count for a loop's trip
// vector.
type SlotCount struct {
	Slot int
	N    int64
}

// NewCountTable builds the count table of a schedule of f.
func NewCountTable(f *ir.Func, sched *ir.Scheduled) *CountTable {
	t := &CountTable{blocks: map[*ir.Block][]SlotCount{}, trips: map[*ir.Node][]SlotCount{}}
	slots := map[string]int{}
	slot := func(key string) int {
		s, ok := slots[key]
		if !ok {
			s = len(t.Keys)
			slots[key] = s
			t.Keys = append(t.Keys, key)
		}
		return s
	}
	counts := StaticCounts(f, sched)
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		for _, n := range sched.Keep[b] {
			switch n.Def.Op {
			case ir.OpLoop:
				body := n.Def.Blocks[0]
				trip := []SlotCount{{slot(OpLoopIter), 1}, {slot(LoopKey(n.Sym.ID)), 1}}
				walk(body)
				t.trips[n] = append(trip, t.blocks[body]...)
			case ir.OpIf:
				walk(n.Def.Blocks[0])
				walk(n.Def.Blocks[1])
			}
		}
		v := make([]SlotCount, len(counts[b]))
		for i, cd := range counts[b] {
			v[i] = SlotCount{slot(cd.Key), cd.N}
		}
		t.blocks[b] = v
	}
	walk(f.G.Root())
	return t
}

// Block returns a block's static count vector: the root's is applied
// once per run, an if arm's each time the arm is taken.
func (t *CountTable) Block(b *ir.Block) []SlotCount { return t.blocks[b] }

// Trip returns a loop's trip vector, applied once per execution of the
// loop scaled by its trip count: one iteration count, the loop's
// attribution key (LoopKey) and its body's static count vector.
func (t *CountTable) Trip(loop *ir.Node) []SlotCount { return t.trips[loop] }

// Flush adds every touched slot to c and clears the slot. n and hit
// are a run's counts over the table: n[s] is what the run added to
// Keys[s], and hit[s] reports that some vector added to slot s at all —
// a loop that ran zero times still puts its keys in the counter, at
// zero.
func (t *CountTable) Flush(c vm.Counter, n []int64, hit []bool) {
	for s, h := range hit {
		if h {
			c[t.Keys[s]] += n[s]
			n[s], hit[s] = 0, false
		}
	}
}

// countRegs are a run's counts over its program's table, one register
// per slot: a frame's last registers, or a Count call's own. A count
// register is the zero Value until a vector adds to it, and from then
// on an i64 holding what the run added; so, like hit in Flush, it
// tells a slot that was added zero apart from one never added. A
// pooled frame's count registers are zero.
type countRegs []vm.Value

// add applies a vector scaled by k.
func (r countRegs) add(v []SlotCount, k int64) {
	for _, sc := range v {
		c := &r[sc.Slot]
		c.Kind = ir.KindI64
		c.I += sc.N * k
	}
}

// absorb moves o's counts into r and clears o: a parallel lane's counts
// join its parent frame's after the join.
func (r countRegs) absorb(o countRegs) {
	for s := range o {
		if o[s].Kind != ir.KindVoid {
			r[s].Kind = ir.KindI64
			r[s].I += o[s].I
			o[s] = vm.Value{}
		}
	}
}

// flush is Flush over count registers.
func (t *CountTable) flush(c vm.Counter, r countRegs) {
	for s := range r {
		if r[s].Kind != ir.KindVoid {
			c[t.Keys[s]] += r[s].I
			r[s] = vm.Value{}
		}
	}
}
