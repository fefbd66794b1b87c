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
	// Lane is the binding record of an intrinsic whose semantic is one
	// lane.go kernel, and nil for any other. Fn is derived from it.
	Lane *Lane
}

var registry = map[string]Intrinsic{}

// register installs a semantic; duplicate registration is a programming
// error caught at init.
func register(name string, fn func(m *Machine, args []Value, dst *Vec) (Value, error)) {
	install(Intrinsic{Name: name, Fn: fn})
}

func install(in Intrinsic) {
	if _, dup := registry[in.Name]; dup {
		panic(fmt.Sprintf("vm: duplicate intrinsic semantic %s", in.Name))
	}
	registry[in.Name] = in
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

func argVec(args []Value, i int) *Vec { return args[i].Reg() }

func argInt(args []Value, i int) int { return int(args[i].AsInt()) }

func argPtr(args []Value, i int) (*Buffer, int, error) {
	if args[i].Mem == nil {
		return nil, 0, fmt.Errorf("vm: argument %d is not a pointer", i)
	}
	return args[i].Mem, args[i].Off, nil
}

func vecResult(dst *Vec) (Value, error) { return Value{Kind: ir.KindVec, V: dst}, nil }

func voidResult() (Value, error) { return Value{}, nil }

// --- lane bindings -------------------------------------------------------------

// The kernel shapes a binding holds. A kernel writes a vector result
// through dst at the register width bits; the operands follow, each of
// one kind: a register (*Vec), an immediate (int) or an integer scalar
// (int64), both read with Value.AsInt, a float scalar (float64,
// Value.AsFloat), or a pointer, passed as the buffer's bytes and a byte
// offset. Cast is the reinterpretation, which runs no kernel: its
// result is its operand's register.
type (
	Kernel0     func(dst *Vec, bits int)
	Kernel1     func(dst *Vec, bits int, a *Vec)
	Kernel2     func(dst *Vec, bits int, a, b *Vec)
	Kernel3     func(dst *Vec, bits int, a, b, c *Vec)
	Kernel1Imm  func(dst *Vec, bits int, a *Vec, imm int)
	Kernel2Imm  func(dst *Vec, bits int, a, b *Vec, imm int)
	KernelSetF  func(dst *Vec, bits int, x float64)
	KernelSetI  func(dst *Vec, bits int, x int64)
	KernelLoad  func(dst *Vec, bits int, d []byte, off int) error
	KernelStore func(bits int, d []byte, off int, a *Vec) error
	KernelF32   func(bits int, a *Vec) float32
	Cast        struct{}
)

// Lane is the binding record of an intrinsic whose semantic is one
// lane.go kernel: the kernel, the register width it runs at and, for a
// kernel with a pointer operand, the footprint. The kernel's type
// states the kinds of the operands and of the result (Operands,
// Result). The record is the intrinsic's one description: Fn is built
// from it, and kernelc calls the kernel straight on its frame's
// registers from the same record.
type Lane struct {
	Kernel any // one of the kernel shapes above
	Bits   int
	Access Access
}

// Operands returns the kinds of the kernel's operands in order, one
// byte each: 'v' a register, 'i' an immediate, 'n' an integer scalar,
// 'f' a float scalar, 'p' a pointer.
func (l *Lane) Operands() string {
	switch l.Kernel.(type) {
	case Kernel0:
		return ""
	case Kernel1, KernelF32, Cast:
		return "v"
	case Kernel2:
		return "vv"
	case Kernel3:
		return "vvv"
	case Kernel1Imm:
		return "vi"
	case Kernel2Imm:
		return "vvi"
	case KernelSetF:
		return "f"
	case KernelSetI:
		return "n"
	case KernelLoad:
		return "p"
	case KernelStore:
		return "pv"
	}
	panic(fmt.Sprintf("vm: lane kernel of type %T", l.Kernel))
}

// Result returns the kind of the result: 'v' a register (for a Cast,
// the operand's own), 'f' a float32 scalar, 0 none.
func (l *Lane) Result() byte {
	switch l.Kernel.(type) {
	case KernelStore:
		return 0
	case KernelF32:
		return 'f'
	}
	return 'v'
}

// Load runs a KernelLoad binding: it loads into dst through the
// pointer to element off of buf (nil when the operand is not a
// pointer) and routes the access through the cache simulator.
func (l *Lane) Load(m *Machine, dst *Vec, buf *Buffer, off int) error {
	off, err := l.offset(buf, off)
	if err != nil {
		return err
	}
	if err := l.Kernel.(KernelLoad)(dst, l.Bits, buf.Data, off); err != nil {
		return err
	}
	m.Touch(buf, off, l.Access.Bytes)
	return nil
}

// Store runs a KernelStore binding: it stores a through the pointer to
// element off of buf and routes the access through the cache
// simulator.
func (l *Lane) Store(m *Machine, buf *Buffer, off int, a *Vec) error {
	off, err := l.offset(buf, off)
	if err != nil {
		return err
	}
	if err := l.Kernel.(KernelStore)(l.Bits, buf.Data, off, a); err != nil {
		return err
	}
	m.Touch(buf, off, l.Access.Bytes)
	return nil
}

// offset is the byte offset of element off of buf, scaled as Access
// states.
func (l *Lane) offset(buf *Buffer, off int) (int, error) {
	if buf == nil {
		return 0, fmt.Errorf("vm: argument 0 is not a pointer")
	}
	scale := l.Access.Scale
	if scale == 0 {
		scale = buf.Prim.Bits() / 8
	}
	return off * scale, nil
}

// fn derives the intrinsic's Fn from the record.
func (l *Lane) fn() func(m *Machine, args []Value, dst *Vec) (Value, error) {
	bits := l.Bits
	switch k := l.Kernel.(type) {
	case Kernel0:
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			k(dst, bits)
			return vecResult(dst)
		}
	case Kernel1:
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			k(dst, bits, argVec(args, 0))
			return vecResult(dst)
		}
	case Kernel2:
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			k(dst, bits, argVec(args, 0), argVec(args, 1))
			return vecResult(dst)
		}
	case Kernel3:
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			k(dst, bits, argVec(args, 0), argVec(args, 1), argVec(args, 2))
			return vecResult(dst)
		}
	case Kernel1Imm:
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			k(dst, bits, argVec(args, 0), argInt(args, 1))
			return vecResult(dst)
		}
	case Kernel2Imm:
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			k(dst, bits, argVec(args, 0), argVec(args, 1), argInt(args, 2))
			return vecResult(dst)
		}
	case KernelSetF:
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			k(dst, bits, args[0].AsFloat())
			return vecResult(dst)
		}
	case KernelSetI:
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			k(dst, bits, args[0].AsInt())
			return vecResult(dst)
		}
	case KernelLoad:
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			if err := l.Load(m, dst, args[0].Mem, args[0].Off); err != nil {
				return Value{}, err
			}
			return vecResult(dst)
		}
	case KernelStore:
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			if err := l.Store(m, args[0].Mem, args[0].Off, argVec(args, 1)); err != nil {
				return Value{}, err
			}
			return voidResult()
		}
	case KernelF32:
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			return F32Value(k(bits, argVec(args, 0))), nil
		}
	case Cast:
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			return vecResult(argVec(args, 0))
		}
	}
	panic(fmt.Sprintf("vm: lane kernel of type %T", l.Kernel))
}

// bindAt installs name as a binding of kernel k at width bits.
func bindAt(name string, bits int, k any) { bindLane(name, Lane{Kernel: k, Bits: bits}) }

func bindLane(name string, l Lane) {
	install(Intrinsic{Name: name, Fn: l.fn(), Lane: &l})
	if l.Access.Bytes != 0 {
		accessRegistry[name] = l.Access
	}
}

// The reg helpers bind a kernel at the register width the intrinsic's
// name implies.

func reg0(name string, k Kernel0)        { bindAt(name, widthOf(name), k) }
func reg1(name string, k Kernel1)        { bindAt(name, widthOf(name), k) }
func reg2(name string, k Kernel2)        { bindAt(name, widthOf(name), k) }
func reg3(name string, k Kernel3)        { bindAt(name, widthOf(name), k) }
func reg1Imm(name string, k Kernel1Imm)  { bindAt(name, widthOf(name), k) }
func reg2Imm(name string, k Kernel2Imm)  { bindAt(name, widthOf(name), k) }
func regSet1F(name string, k KernelSetF) { bindAt(name, widthOf(name), k) }
func regSet1I(name string, k KernelSetI) { bindAt(name, widthOf(name), k) }
