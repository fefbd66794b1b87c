package vm

import (
	"fmt"
	"sort"

	"repro/internal/cachesim"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Machine is one simulated CPU executing kernels: the feature set drives
// availability checks, the RNG backs the RDRAND/RDSEED intrinsics, and
// Counts accumulates dynamic instruction counts that the cost model
// converts into cycles.
type Machine struct {
	Arch   *isa.Microarch
	Rand   *Xorshift
	Counts Counter
	// Cache, when set, simulates the access stream through a real
	// set-associative hierarchy — used to validate the analytical
	// memory model. Nil by default (simulation costs time).
	Cache *cachesim.Hierarchy
	// Workers is the lane budget for the parallel loop tier: loops the
	// dependence analysis proves independent shard across up to this
	// many goroutines. 0 or 1 keeps every loop on the serial driver.
	// Sharded execution is disabled while Cache is attached (the
	// simulator is order-sensitive shared state).
	Workers int
}

// Touch routes one memory access through the cache simulator, when
// attached.
func (m *Machine) Touch(b *Buffer, byteOff, size int) {
	if m.Cache != nil {
		m.Cache.Access(b.Base+uint64(byteOff), size)
	}
}

// NewMachine creates a machine for the given microarchitecture with a
// fixed RNG seed (the hardware RDRAND is substituted by a deterministic
// xorshift so experiments replay exactly).
func NewMachine(arch *isa.Microarch) *Machine {
	return &Machine{Arch: arch, Rand: NewXorshift(0x9E3779B97F4A7C15), Counts: Counter{}}
}

// Worker derives a lane-private machine for one shard of a parallel
// loop: same architecture, fresh deterministic RNG, an empty counter
// the scheduler merges after the join, no cache simulator, and a zero
// worker budget so nested loops inside the shard stay serial.
func (m *Machine) Worker() *Machine {
	return NewMachine(m.Arch)
}

// Counter counts dynamically executed operations by op name.
type Counter map[string]int64

// Add increments an op's count.
func (c Counter) Add(op string, n int64) { c[op] += n }

// Reset clears all counts.
func (c Counter) Reset() {
	for k := range c {
		delete(c, k)
	}
}

// Total sums every count.
func (c Counter) Total() int64 {
	var t int64
	for _, n := range c {
		t += n
	}
	return t
}

// Ops returns op names sorted for deterministic reporting.
func (c Counter) Ops() []string {
	out := make([]string, 0, len(c))
	for k := range c {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Merge adds every count from o into c (parallel sweep workers count on
// private machines and merge after the barrier).
func (c Counter) Merge(o Counter) {
	for k, v := range o {
		c[k] += v
	}
}

// Publish mirrors every count into the registry as gauges named
// prefix+op. Counts are cumulative totals, so gauge semantics (set, not
// add) make Publish idempotent — the harness republishes the merged
// sweep counters before each metrics snapshot.
func (c Counter) Publish(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	for _, op := range c.Ops() {
		r.Gauge(prefix + op).Set(c[op])
	}
}

// Clone copies the counter.
func (c Counter) Clone() Counter {
	out := make(Counter, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Intrinsic is one executable intrinsic semantic. Fn is the only
// definition: the interpreter's tiers, the count-only evaluator and the
// conformance differentials all execute it.
type Intrinsic struct {
	Name string
	// Fn evaluates the intrinsic. It reads vector operands by reference
	// and writes a vector result, all 64 bytes of it, into dst, which
	// never aliases an operand; the returned Value then refers to dst.
	// Scalar results are returned by value, and void intrinsics return
	// the zero Value; neither touches dst.
	Fn func(m *Machine, args []Value, dst *Vec) (Value, error)
}

var registry = map[string]Intrinsic{}

// register installs a semantic; duplicate registration is a programming
// error caught at init.
func register(name string, fn func(m *Machine, args []Value, dst *Vec) (Value, error)) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("vm: duplicate intrinsic semantic %s", name))
	}
	registry[name] = Intrinsic{Name: name, Fn: fn}
}

// Lookup finds an intrinsic's executable semantic.
func Lookup(name string) (Intrinsic, bool) {
	in, ok := registry[name]
	return in, ok
}

// Implemented reports whether the machine can execute the named
// intrinsic.
func Implemented(name string) bool {
	_, ok := registry[name]
	return ok
}

// ImplementedCount returns the number of intrinsics with executable
// semantics.
func ImplementedCount() int { return len(registry) }

// ImplementedNames lists all executable intrinsics sorted by name.
func ImplementedNames() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Call executes an intrinsic by name, counting it. A vector result
// lives in fresh storage the returned Value owns.
func (m *Machine) Call(name string, args ...Value) (Value, error) {
	in, ok := registry[name]
	if !ok {
		return Value{}, fmt.Errorf("vm: intrinsic %s has no executable semantic", name)
	}
	m.Counts.Add(name, 1)
	return in.Fn(m, args, new(Vec))
}

// --- argument helpers used by the semantics files ---------------------------

func argVec(args []Value, i int) *Vec { return args[i].vec() }

func argInt(args []Value, i int) int { return int(args[i].AsInt()) }

func argPtr(args []Value, i int) (*Buffer, int, error) {
	if args[i].Mem == nil {
		return nil, 0, fmt.Errorf("vm: argument %d is not a pointer", i)
	}
	return args[i].Mem, args[i].Off, nil
}

func vecResult(dst *Vec) (Value, error) { return Value{Kind: ir.KindVec, V: dst}, nil }

func voidResult() (Value, error) { return Value{}, nil }

// --- registering the lane kernels (lane.go) ----------------------------------
//
// Each helper installs a kernel at the register width the intrinsic's
// name implies, reading its operands in order.

func reg1(name string, k func(dst *Vec, bits int, a *Vec)) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		k(dst, bits, argVec(args, 0))
		return vecResult(dst)
	})
}

func reg2(name string, k func(dst *Vec, bits int, a, b *Vec)) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		k(dst, bits, argVec(args, 0), argVec(args, 1))
		return vecResult(dst)
	})
}

func reg3(name string, k func(dst *Vec, bits int, a, b, c *Vec)) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		k(dst, bits, argVec(args, 0), argVec(args, 1), argVec(args, 2))
		return vecResult(dst)
	})
}

func reg1Imm(name string, k func(dst *Vec, bits int, a *Vec, imm int)) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		k(dst, bits, argVec(args, 0), argInt(args, 1))
		return vecResult(dst)
	})
}

func reg2Imm(name string, k func(dst *Vec, bits int, a, b *Vec, imm int)) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		k(dst, bits, argVec(args, 0), argVec(args, 1), argInt(args, 2))
		return vecResult(dst)
	})
}

// regSet1F and regSet1I broadcast a scalar operand, read as AsFloat
// and AsInt.
func regSet1F(name string, k func(dst *Vec, bits int, x float64)) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		k(dst, bits, args[0].AsFloat())
		return vecResult(dst)
	})
}

func regSet1I(name string, k func(dst *Vec, bits int, x int64)) {
	bits := widthOf(name)
	register(name, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		k(dst, bits, args[0].AsInt())
		return vecResult(dst)
	})
}
