// Package machine is the analytical performance model that converts a
// kernel's dynamic instruction counts (from internal/kernelc runs on the
// software SIMD machine) into cycle estimates on a modeled
// microarchitecture — the substitution for the paper's measurements on a
// real Haswell Xeon (Section 3.4's experimental setup).
//
// The model is deliberately mechanism-based rather than curve-fit: it
// reproduces the paper's figure shapes through the same causes the paper
// cites — port throughput limits, the cache hierarchy's bandwidth
// staircase, loop-carried dependency latency, fixed JNI crossing costs —
// so experiments remain sensitive to the code the kernels actually
// stage.
package machine

import (
	"strings"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/vm"
)

// Resource names one contended execution resource.
type Resource string

// The modeled resources, roughly Haswell's port groups.
const (
	ResFMA    Resource = "fma"     // p0/p1: FP multiply and FMA
	ResFPAdd  Resource = "fpadd"   // p1: FP add
	ResVecInt Resource = "vecint"  // p1/p5: vector integer ALU
	ResVecMul Resource = "vecmul"  // p0: vector integer multiply (pmadd*)
	ResShuf   Resource = "shuffle" // p5: shuffles/permutes/packs
	ResLoad   Resource = "load"    // p2/p3: loads
	ResStore  Resource = "store"   // p4: store data
	ResALU    Resource = "alu"     // p0156: scalar integer
	ResDiv    Resource = "divider" // FP divide/sqrt unit
	ResBranch Resource = "branch"  // p6
	// ResFront is the decode/rename front end: every uop passes it.
	ResFront Resource = "frontend"
)

// IssueWidth is the front-end width in uops/cycle (Haswell: 4).
const IssueWidth = 4

// Resource slot indices for the fixed-size pressure accumulator:
// Estimate runs once per measurement repetition, so its working state
// is a stack array instead of a map.
const (
	idxFMA = iota
	idxFPAdd
	idxVecInt
	idxVecMul
	idxShuf
	idxLoad
	idxStore
	idxALU
	idxDiv
	idxBranch
	idxFront
	numRes
)

// resByIndex maps pressure slots back to their Resource names.
var resByIndex = [numRes]Resource{
	ResFMA, ResFPAdd, ResVecInt, ResVecMul, ResShuf,
	ResLoad, ResStore, ResALU, ResDiv, ResBranch, ResFront,
}

// resIndex returns a resource's pressure slot.
func resIndex(r Resource) int {
	switch r {
	case ResFMA:
		return idxFMA
	case ResFPAdd:
		return idxFPAdd
	case ResVecInt:
		return idxVecInt
	case ResVecMul:
		return idxVecMul
	case ResShuf:
		return idxShuf
	case ResLoad:
		return idxLoad
	case ResStore:
		return idxStore
	case ResALU:
		return idxALU
	case ResDiv:
		return idxDiv
	case ResBranch:
		return idxBranch
	default:
		return idxFront
	}
}

// OpCost describes one operation class.
type OpCost struct {
	Res  Resource
	Uops float64 // uops on that resource (1/throughput)
	Lat  float64 // result latency, for dependency chains
	// Bytes moved to/from the memory hierarchy.
	LoadBytes, StoreBytes int
}

// capacity returns how many uops of a resource the microarchitecture
// retires per cycle.
func capacity(a *isa.Microarch, r Resource) float64 {
	switch r {
	case ResFMA:
		return float64(a.FMAPorts)
	case ResFPAdd:
		return float64(a.AddPorts)
	case ResVecInt:
		return 2
	case ResVecMul:
		return 1
	case ResFront:
		return IssueWidth
	case ResShuf:
		return float64(a.ShufPorts)
	case ResLoad:
		return float64(a.LoadPorts)
	case ResStore:
		return float64(a.StorePorts)
	case ResALU:
		return float64(a.ALUPorts)
	case ResDiv:
		return 1
	case ResBranch:
		return 2
	default:
		return 1
	}
}

// vecBytes extracts the register width in bytes from an intrinsic name.
func vecBytes(name string) int {
	switch {
	case strings.HasPrefix(name, "_mm512_"):
		return 64
	case strings.HasPrefix(name, "_mm256_"):
		return 32
	case strings.HasPrefix(name, "_mm_"):
		return 16
	default:
		return 8
	}
}

func has(name string, subs ...string) bool {
	for _, s := range subs {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// Classify maps a counted op name to its cost. Unknown intrinsics
// default to a one-uop vector-integer op; the first time each unknown
// spelling is priced it is recorded and logged once (see UnknownOps),
// so planner mispredictions caused by unpriced ops stay visible.
func Classify(name string) OpCost {
	c, known := classify(name)
	if !known {
		noteUnknown(name)
	}
	return c
}

// classify is the pricing table. known is false only when the name
// matched no class at all and fell through to the defensive default.
func classify(name string) (c OpCost, known bool) {
	// Scalar pseudo-ops from the kernel compiler.
	switch name {
	case "scalar.alu":
		return OpCost{Res: ResALU, Uops: 1, Lat: 1}, true
	case "scalar.mul":
		return OpCost{Res: ResALU, Uops: 1, Lat: 3}, true
	case "scalar.div":
		return OpCost{Res: ResDiv, Uops: 20, Lat: 25}, true
	case "scalar.fp":
		return OpCost{Res: ResFPAdd, Uops: 1, Lat: 3}, true
	case "scalar.fmul":
		return OpCost{Res: ResFMA, Uops: 1, Lat: 5}, true
	case "scalar.fdiv":
		return OpCost{Res: ResDiv, Uops: 7, Lat: 13}, true
	case "scalar.load":
		return OpCost{Res: ResLoad, Uops: 1, Lat: 4, LoadBytes: 4}, true
	case "scalar.load.strided":
		// Stride-n accesses miss L1 but neighbouring sweeps share cache
		// lines; charge a quarter line per access.
		return OpCost{Res: ResLoad, Uops: 1, Lat: 4, LoadBytes: 16}, true
	case "scalar.store":
		return OpCost{Res: ResStore, Uops: 1, Lat: 1, StoreBytes: 4}, true
	case "scalar.conv":
		return OpCost{Res: ResALU, Uops: 1, Lat: 2}, true
	case "scalar.loop":
		// Increment + compare per iteration (the branch is separate).
		return OpCost{Res: ResALU, Uops: 1.5, Lat: 1}, true
	case "scalar.branch":
		return OpCost{Res: ResBranch, Uops: 1, Lat: 1}, true
	}
	if strings.HasPrefix(name, "loop.#") || name == "jni.call" {
		return OpCost{}, true // accounted separately
	}
	b := vecBytes(name)

	switch {
	// Memory first: anything that moves memory is priced as a memory op
	// even when its mnemonic also matches an arithmetic substring.
	case has(name, "gather"):
		lanes := 8
		if b == 16 {
			lanes = 4
		}
		return OpCost{Res: ResLoad, Uops: float64(lanes), Lat: 18, LoadBytes: b}, true
	case has(name, "maskstore", "scatter"):
		return OpCost{Res: ResStore, Uops: 2, Lat: 5, StoreBytes: b}, true
	case has(name, "maskload"):
		return OpCost{Res: ResLoad, Uops: 2, Lat: 8, LoadBytes: b}, true
	case has(name, "load", "lddqu"):
		return OpCost{Res: ResLoad, Uops: 1, Lat: 4, LoadBytes: b}, true
	case has(name, "store"):
		return OpCost{Res: ResStore, Uops: 1, Lat: 1, StoreBytes: b}, true
	case has(name, "broadcast_s", "broadcast_p"): // from memory
		return OpCost{Res: ResLoad, Uops: 1, Lat: 5, LoadBytes: 8}, true
	case has(name, "prefetch"):
		return OpCost{Res: ResLoad, Uops: 1, Lat: 0}, true

	// Cross-lane reductions decompose into shuffle+add sequences.
	case has(name, "reduce_add", "reduce_gmax"):
		return OpCost{Res: ResShuf, Uops: 4, Lat: 12}, true

	// FP arithmetic.
	case has(name, "fmadd", "fmsub", "fnmadd", "fnmsub", "fmaddsub", "fmsubadd"):
		return OpCost{Res: ResFMA, Uops: 1, Lat: 5}, true
	case has(name, "dp_ps", "dp_pd"):
		return OpCost{Res: ResFMA, Uops: 3, Lat: 14}, true
	case has(name, "mul_ps", "mul_pd", "mul_ss", "mul_sd"):
		return OpCost{Res: ResFMA, Uops: 1, Lat: 5}, true
	case has(name, "div_ps", "div_pd", "div_ss", "div_sd"):
		u := 7.0
		if b >= 32 {
			u = 14
		}
		return OpCost{Res: ResDiv, Uops: u, Lat: 19}, true
	case has(name, "sqrt", "rsqrt", "rcp"):
		return OpCost{Res: ResDiv, Uops: 7, Lat: 19}, true
	case has(name, "hadd_p", "hsub_p"):
		// 2 shuffles + 1 add on hardware.
		return OpCost{Res: ResShuf, Uops: 2, Lat: 5}, true
	case has(name, "addsub_p"):
		return OpCost{Res: ResFPAdd, Uops: 1, Lat: 3}, true
	case has(name, "add_ps", "add_pd", "sub_ps", "sub_pd", "add_ss", "sub_ss", "add_sd", "sub_sd"):
		return OpCost{Res: ResFPAdd, Uops: 1, Lat: 3}, true
	case has(name, "max_p", "min_p", "max_s", "min_s"):
		return OpCost{Res: ResFPAdd, Uops: 1, Lat: 3}, true
	case has(name, "cmp_ps", "cmp_pd", "cmpeq_p", "cmplt_p", "cmple_p", "cmpgt_p", "cmpge_p", "cmpneq_p"):
		return OpCost{Res: ResFPAdd, Uops: 1, Lat: 3}, true
	case has(name, "round", "floor", "ceil"):
		return OpCost{Res: ResShuf, Uops: 1, Lat: 6}, true

	// SVML: polynomial sequences.
	case has(name, "sin", "cos", "tan", "exp", "log", "cbrt", "erf", "cdfnorm", "pow", "invsqrt"):
		return OpCost{Res: ResFMA, Uops: 10, Lat: 30}, true

	// Integer multiply family: the vector integer multiplier is a
	// single port (Haswell p0).
	case has(name, "madd", "mullo", "mulhi", "mulhrs", "mul_ep", "sad_"):
		return OpCost{Res: ResVecMul, Uops: 1, Lat: 5}, true

	// Conversions and half-float codecs run on the shuffle port.
	case has(name, "cvtph", "cvtps_ph"):
		return OpCost{Res: ResShuf, Uops: 1, Lat: 6}, true
	case has(name, "cvt"):
		return OpCost{Res: ResShuf, Uops: 1, Lat: 4}, true

	// Data movement.
	case has(name, "unpack", "shuffle", "permute", "alignr", "pack",
		"insert", "extract", "blend", "movehl", "movelh", "movedup",
		"movehdup", "moveldup", "bslli", "bsrli", "slli_si", "srli_si",
		"broadcast"):
		return OpCost{Res: ResShuf, Uops: 1, Lat: 1}, true
	case has(name, "movemask"):
		return OpCost{Res: ResALU, Uops: 1, Lat: 2}, true
	case has(name, "set1", "set_"):
		return OpCost{Res: ResShuf, Uops: 1, Lat: 3}, true
	case has(name, "setzero"):
		return OpCost{Res: ResVecInt, Uops: 0.5, Lat: 0}, true // xor-zeroing is almost free
	case has(name, "zeroall", "zeroupper", "empty", "fence"):
		return OpCost{Res: ResALU, Uops: 1, Lat: 0}, true

	// Scalar extension sets.
	case has(name, "rdrand", "rdseed"):
		return OpCost{Res: ResALU, Uops: 16, Lat: 300}, true
	case has(name, "popcnt", "lzcnt", "tzcnt", "crc32", "pext", "pdep", "blsr"):
		return OpCost{Res: ResALU, Uops: 1, Lat: 3}, true
	case has(name, "rdtsc"):
		return OpCost{Res: ResALU, Uops: 10, Lat: 24}, true
	case has(name, "aes", "sha", "clmul"):
		return OpCost{Res: ResVecInt, Uops: 1, Lat: 7}, true
	case has(name, "cmpistr", "cmpestr"):
		return OpCost{Res: ResVecInt, Uops: 3, Lat: 11}, true

	// The vector integer ALU family: add/sub/logic/compare/minmax/abs/
	// sign/avg/shift/cast, spelled out so the defensive default below
	// only catches names the table genuinely does not know.
	case has(name, "add_", "adds_", "sub_", "subs_", "abs_", "sign_", "avg_", "and", "or_",
		"cmp", "div_ep", "rem_ep", "hadd", "hsub", "max_", "min_", "minpos",
		"rol", "ror", "sll", "srl", "sra", "cast", "stream", "test",
		"mov", "conflict", "ternarylogic", "compress", "expand"):
		return OpCost{Res: ResVecInt, Uops: 1, Lat: 1}, true

	// Truly unknown: price as a one-uop vector-integer op (the least
	// wrong default for a SIMD spelling) and let Classify record it.
	default:
		return OpCost{Res: ResVecInt, Uops: 1, Lat: 1}, false
	}
}

// Report is a cycle estimate with its contributing bounds.
type Report struct {
	Cycles   float64
	Compute  float64 // port-throughput bound
	Memory   float64 // bandwidth bound at the working set's cache level
	Latency  float64 // loop-carried dependency bound
	Overhead float64 // JNI crossings and other fixed costs
	Bound    string  // which bound dominated
	Level    string  // cache level of the working set
}

// Estimator converts counts to cycles for one microarchitecture. It
// prices each op name and each loop body once and carries reusable
// chain-analysis scratch, so one Estimator serves one goroutine at a
// time (sweep workers each own one); Estimate itself is allocation-free
// in steady state.
type Estimator struct {
	Arch *isa.Microarch

	// costs memoizes Classify per op name the table knows (see cost);
	// chains memoizes chainLatency per loop body; loopKeys caches
	// "loop.#<id>" counter-key spellings; depth is the chain-latency
	// working map, cleared between uses.
	costs    map[string]OpCost
	chains   map[*ir.Block]float64
	loopKeys map[int]string
	depth    map[int]float64
}

// NewEstimator builds an estimator.
func NewEstimator(arch *isa.Microarch) *Estimator { return &Estimator{Arch: arch} }

// cost is Classify memoized per op name: the price is a pure function
// of the name. Only names the table knows are kept, so every pricing of
// an unknown name still reaches noteUnknown, which records and logs it
// once per process (and again after ResetUnknownOps).
func (e *Estimator) cost(name string) OpCost {
	if c, ok := e.costs[name]; ok {
		return c
	}
	c, known := classify(name)
	if !known {
		noteUnknown(name)
		return c
	}
	if e.costs == nil {
		e.costs = map[string]OpCost{}
	}
	e.costs[name] = c
	return c
}

// bandwidth returns the sustained bytes/cycle at a cache level.
func (e *Estimator) bandwidth(level string) float64 {
	switch level {
	case "L1":
		return e.Arch.L1BW
	case "L2":
		return e.Arch.L2BW
	case "L3":
		return e.Arch.L3BW
	default:
		return e.Arch.MemBW
	}
}

// Estimate prices one kernel run. f may be nil when no dependency-chain
// analysis is wanted; footprint is the run's working-set size in bytes.
func (e *Estimator) Estimate(f *ir.Func, counts vm.Counter, footprint int) Report {
	var pressure [numRes]float64
	loadBytes, storeBytes := 0.0, 0.0
	accesses := 0.0
	for op, n := range counts {
		c := e.cost(op)
		if c.Res != "" {
			u := float64(n) * c.Uops
			pressure[resIndex(c.Res)] += u
			pressure[idxFront] += u
		}
		loadBytes += float64(n) * float64(c.LoadBytes)
		storeBytes += float64(n) * float64(c.StoreBytes)
		if c.LoadBytes > 0 || c.StoreBytes > 0 {
			accesses += float64(n)
		}
	}

	var rep Report
	for i, p := range pressure {
		if p == 0 {
			continue
		}
		if cyc := p / capacity(e.Arch, resByIndex[i]); cyc > rep.Compute {
			rep.Compute = cyc
		}
	}

	rep.Level = e.Arch.CacheLevel(footprint)
	bw := e.bandwidth(rep.Level)
	// Narrow accesses sustain less of the peak bandwidth: fewer bytes in
	// flight per instruction limit memory-level parallelism. This is the
	// mechanism behind the paper's observation that AVX code keeps a
	// small edge over HotSpot's SSE even when both are bandwidth-bound.
	util := 1.0
	if accesses > 0 {
		avg := (loadBytes + storeBytes) / accesses
		if avg < 32 {
			util = 0.75 + 0.25*avg/32
		}
	}
	rep.Memory = (loadBytes + storeBytes) / (bw * util)

	if f != nil {
		rep.Latency = e.chainCycles(f, counts)
	}
	rep.Overhead = float64(counts["jni.call"]) * e.Arch.JNICycles

	rep.Cycles = rep.Compute
	rep.Bound = "compute"
	if rep.Memory > rep.Cycles {
		rep.Cycles, rep.Bound = rep.Memory, "memory"
	}
	if rep.Latency > rep.Cycles {
		rep.Cycles, rep.Bound = rep.Latency, "latency"
	}
	rep.Cycles += rep.Overhead
	return rep
}

// chainCycles prices loop-carried dependency chains: for every staged
// loop carrying an accumulator, the longest latency path from the
// carried symbol to the next-iteration value, times the loop's dynamic
// iteration count.
func (e *Estimator) chainCycles(f *ir.Func, counts vm.Counter) float64 {
	return e.chainWalk(f.G.Root(), counts)
}

// loopKey returns the cached kernelc.LoopKey spelling.
func (e *Estimator) loopKey(id int) string {
	if k, ok := e.loopKeys[id]; ok {
		return k
	}
	if e.loopKeys == nil {
		e.loopKeys = map[int]string{}
	}
	k := kernelc.LoopKey(id)
	e.loopKeys[id] = k
	return k
}

func (e *Estimator) chainWalk(b *ir.Block, counts vm.Counter) float64 {
	total := 0.0
	for _, n := range b.Nodes {
		if n.Def.Op == ir.OpLoop && len(n.Def.Args) == 4 {
			body := n.Def.Blocks[0]
			iters := float64(counts[e.loopKey(n.Sym.ID)])
			if iters > 0 {
				total += e.bodyLatency(body) * iters
			}
		}
		for _, blk := range n.Def.Blocks {
			total += e.chainWalk(blk, counts)
		}
	}
	return total
}

// nodeLatency prices one IR node for chain analysis: intrinsics via the
// cost table, host-language scalar ops via their type (an FP add is a
// 3-cycle chain link; integer adds a 1-cycle one).
func nodeLatency(d *ir.Def) float64 {
	if ir.IsIntrinsicOp(d.Op) {
		return Classify(d.Op).Lat
	}
	fp := d.Typ.IsFloat()
	switch d.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMin, ir.OpMax, ir.OpNeg:
		if fp {
			return 3
		}
		return 1
	case ir.OpMul:
		if fp {
			return 5
		}
		return 3
	case ir.OpDiv, ir.OpRem:
		if fp {
			return 13
		}
		return 25
	case ir.OpALoad:
		return 4
	case ir.OpConv:
		return 2
	default:
		return 1
	}
}

// bodyLatency is chainLatency memoized per loop body, a pure function
// of the body's nodes.
func (e *Estimator) bodyLatency(b *ir.Block) float64 {
	if l, ok := e.chains[b]; ok {
		return l
	}
	l := e.chainLatency(b)
	if e.chains == nil {
		e.chains = map[*ir.Block]float64{}
	}
	e.chains[b] = l
	return l
}

// chainLatency computes the longest latency path from the block's
// carried parameter to its result.
func (e *Estimator) chainLatency(b *ir.Block) float64 {
	if len(b.Params) < 2 || b.Result == nil {
		return 0
	}
	acc := b.Params[1]
	if e.depth == nil {
		e.depth = map[int]float64{}
	}
	depth := e.depth
	for k := range depth {
		delete(depth, k)
	}
	depth[acc.ID] = 0
	for _, n := range b.Nodes {
		best := -1.0
		for _, a := range n.Def.ArgSyms() {
			if d, ok := depth[a.ID]; ok && d > best {
				best = d
			}
		}
		if best < 0 {
			continue // not on the chain
		}
		depth[n.Sym.ID] = best + nodeLatency(n.Def)
	}
	if r, ok := b.Result.(ir.Sym); ok {
		if d, ok := depth[r.ID]; ok {
			return d
		}
	}
	return 0
}

// FlopsPerCycle is the reporting metric of every figure in the paper.
func FlopsPerCycle(flops int64, rep Report) float64 {
	if rep.Cycles <= 0 {
		return 0
	}
	return float64(flops) / rep.Cycles
}
