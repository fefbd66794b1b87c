package hotspot

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/machine"
	"repro/internal/vm"
)

// Tier is a method's compilation state.
type Tier int

// The HotSpot Server VM tiers (Section 2.2): bytecode interpretation,
// the fast lightly-optimizing C1, and the aggressive C2 with SLP.
const (
	TierInterpreter Tier = iota
	TierC1
	TierC2
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierInterpreter:
		return "interpreter"
	case TierC1:
		return "C1"
	default:
		return "C2"
	}
}

// CostMultiplier scales a tier's cycle estimate relative to C2-quality
// code: interpretation dispatches bytecodes (~15× slower), C1 compiles
// quickly with few optimizations (~3×).
func (t Tier) CostMultiplier() float64 {
	switch t {
	case TierInterpreter:
		return 15
	case TierC1:
		return 3
	default:
		return 1
	}
}

// VM is one simulated HotSpot instance.
type VM struct {
	Arch *isa.Microarch
	// CompileThreshold is the C2 promotion threshold
	// (-XX:CompileThreshold; the paper's benchmarks set 100). C1 kicks
	// in at a quarter of it.
	CompileThreshold int
	Machine          *vm.Machine
	methods          map[string]*Method
	// est prices every method's counts (Method.Estimate); like Machine
	// it serves one goroutine at a time.
	est *machine.Estimator
}

// NewVM boots a simulated HotSpot Server VM on the given machine.
func NewVM(arch *isa.Microarch) *VM {
	return &VM{Arch: arch, CompileThreshold: 10000,
		Machine: vm.NewMachine(arch), methods: map[string]*Method{},
		est: machine.NewEstimator(arch)}
}

// Method is one loaded Java method with its tier state.
type Method struct {
	vm          *VM
	Name        string
	Scalar      *ir.Func // as written (interpreter/C1 execute this)
	C2          *ir.Func // after SLP auto-vectorization
	SLP         SLPReport
	Invocations int

	scalarProg *kernelc.Program
	c2Prog     *kernelc.Program
}

// Load installs a method into the VM, compiling both tiers' bodies
// eagerly (the simulation has no reason to defer). Each tier's program
// runs the count-invariance proof on first use (see CountKey).
func (v *VM) Load(f *ir.Func) (*Method, error) {
	if m, ok := v.methods[f.Name]; ok {
		return m, nil
	}
	scalarProg, err := kernelc.Compile(f)
	if err != nil {
		return nil, fmt.Errorf("hotspot: %s: %w", f.Name, err)
	}
	c2f, rep := AutoVectorize(f, v.Arch.Features)
	c2Prog, err := kernelc.Compile(c2f)
	if err != nil {
		return nil, fmt.Errorf("hotspot: %s (C2): %w", f.Name, err)
	}
	m := &Method{vm: v, Name: f.Name, Scalar: f, C2: c2f, SLP: rep,
		scalarProg: scalarProg, c2Prog: c2Prog}
	v.methods[f.Name] = m
	return m, nil
}

// CountKey returns the key under which one execution's dynamic counts at
// the given tier can be reused (kernelc.CountKey prefixed with the method
// and tier), and false when they cannot: the tier's body failed
// kernelc.CountProof, or args do not match the parameter kinds.
func (m *Method) CountKey(tier Tier, args []vm.Value) (string, bool) {
	prog := m.prog(tier)
	if prog.Proof() != "" {
		return "", false
	}
	return kernelc.CountKey(m.Name+"|"+tier.String(), prog.F, args)
}

// CountAt adds to the VM machine's counter exactly what InvokeAt(tier,
// args...) would count, without executing the method, or returns an
// error wrapping kernelc.ErrNotCounted — counter untouched — when the
// tier's program cannot prove it (see kernelc.Program.Count). Like
// InvokeAt it leaves the invocation profile alone.
func (m *Method) CountAt(tier Tier, args ...vm.Value) error {
	return m.prog(tier).Count(m.vm.Machine, args...)
}

// prog is the program a tier executes: C2 runs the SLP-rewritten body,
// the interpreter and C1 the body as written.
func (m *Method) prog(tier Tier) *kernelc.Program {
	if tier == TierC2 {
		return m.c2Prog
	}
	return m.scalarProg
}

// Tier returns the method's current tier from its invocation profile.
func (m *Method) Tier() Tier {
	switch {
	case m.Invocations >= m.vm.CompileThreshold:
		return TierC2
	case m.Invocations >= m.vm.CompileThreshold/4:
		return TierC1
	default:
		return TierInterpreter
	}
}

// Invoke runs the method at its current tier, bumping the profile
// counter (so repeated invocation walks interpreter → C1 → C2 like a
// warming JVM).
func (m *Method) Invoke(args ...vm.Value) (vm.Value, error) {
	tier := m.Tier()
	m.Invocations++
	return m.prog(tier).Run(m.vm.Machine, args...)
}

// InvokeAt runs at a forced tier without touching the profile (the
// benchmarks measure C2 steady state, "excluding the JIT warm-up time"
// per Section 3.4).
func (m *Method) InvokeAt(tier Tier, args ...vm.Value) (vm.Value, error) {
	return m.prog(tier).Run(m.vm.Machine, args...)
}

// MethodCallCycles is the fixed cost of one compiled-method invocation
// (call, prologue, profiling counter) — the managed-side analog of the
// JNI crossing cost, an order of magnitude cheaper.
const MethodCallCycles = 40

// Estimate prices the counts of a preceding Invoke/InvokeAt at a tier.
// The dependency-chain analysis runs over the function the tier actually
// executed.
func (m *Method) Estimate(tier Tier, counts vm.Counter, footprint int) machine.Report {
	f := m.Scalar
	if tier == TierC2 {
		f = m.C2
	}
	rep := m.vm.est.Estimate(f, counts, footprint)
	mult := tier.CostMultiplier()
	rep.Cycles *= mult
	rep.Compute *= mult
	rep.Memory *= mult
	rep.Latency *= mult
	rep.Overhead += MethodCallCycles
	rep.Cycles += MethodCallCycles
	return rep
}
