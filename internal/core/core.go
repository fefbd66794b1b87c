// Package core is NGen — the runtime pipeline of the paper (Figure 3):
// inspect the system (CPUID → available ISAs), detect native compilers
// and derive flags, take a staged SIMD function, generate C from its
// computation graph, "compile and link" it, and hand back a callable
// kernel with zero per-element overhead (one JNI-priced boundary
// crossing per invocation).
//
// In this reproduction the generated C is retained for inspection while
// execution goes through internal/kernelc over the software SIMD machine
// — see DESIGN.md's substitution table.
//
// Compilation is memoized: artifacts are cached under the canonical
// structural hash of the staged graph (ir.Hash) plus the kernel name,
// microarchitecture, and toolchain, so sweeps that re-stage the same
// kernel at every size point pay for one compile, not dozens.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/cgen"
	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/irverify"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/vm"
)

// JNICall is the counter key for managed↔native boundary crossings.
const JNICall = "jni.call"

// Runtime is one initialised NGen instance.
type Runtime struct {
	Arch      *isa.Microarch
	Toolchain cgen.Toolchain
	Machine   *vm.Machine
	// Cache memoizes compiled artifacts. Forked runtimes share it; set
	// it to nil to force every Compile through the full pipeline.
	Cache *CompileCache
	// Disk is the optional persistent tier below Cache: a
	// content-addressed on-disk store consulted on memory misses and
	// filled after full compiles. A disk hit skips verification and C
	// generation and pays only interpreter lowering. Nil by default
	// (the CLI attaches one via -cachedir); forks share it.
	Disk *DiskCache
	// Tracer and Metrics, when set, receive a span per pipeline stage
	// (ngen.compile → cgen.emit / kernelc.compile / toolchain.link, and
	// call:<kernel> per invocation) and the cache hit/miss counters.
	// Both are nil by default: the disabled obs fast path costs nothing
	// on the Call hot path.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	// Span, when set, parents this runtime's stage spans — the bench
	// harness points it at the current sweep-point span so compiles and
	// calls nest under the point that triggered them. With Span nil,
	// stage spans are top-level on Tracer.
	Span *obs.Span
	// Opt selects the kernelc lowering tier. The zero value is
	// kernelc.TierOpt (loop-nest optimizer and parallel loops on); set
	// kernelc.TierPlain for differential runs: the same fused,
	// destination-passing nodes and the same loop driver, with every
	// loop serial and nothing hoisted or strength-reduced. The
	// tier is part of the compile-cache key, so runtimes at different
	// tiers sharing one cache never cross-contaminate. Planning does not
	// change it: a planned runtime routes among strategies at its tier.
	Opt kernelc.Tier
	// Backend, when non-nil, is tried ahead of the interpreter: Compile
	// asks it for an Executable alongside the kernelc program, and Call
	// routes through it unless a particular invocation signals
	// backend.ErrFallback (then the interpreter serves that call). A
	// backend Compile failure is not an error — the kernel stays on the
	// vm and the reason is retained (Kernel.BackendFallback). Nil means
	// interpreter-only, exactly the pre-Backend behavior. The backend
	// name is part of the compile-cache key.
	Backend backend.Backend
	// Planner, when non-nil, is the one switch for planned execution:
	// it picks the strategy (backend, lanes) per kernel × size bucket —
	// model-predicted cold, calibrated by bounded online probing — for
	// every kernel that has a choice. Set via EnableAutoPlan; forks
	// share it. Nil means static execution, exactly the pre-planner
	// behavior.
	Planner *plan.Planner

	// est is the lazily built cost estimator backing the planner's
	// predictions; private because its chain-analysis scratch is not
	// goroutine-safe (forks build their own).
	est *machine.Estimator
}

// span opens one pipeline-stage span under the runtime's current
// parent. Nil-safe throughout: with no tracer attached it returns a nil
// span whose methods no-op without allocating.
func (rt *Runtime) span(name string) *obs.Span {
	if rt.Span != nil {
		return rt.Span.Child(name)
	}
	return rt.Tracer.Start(name)
}

// NewRuntime inspects the (simulated) system: CPUID via the
// microarchitecture database, compiler discovery via the environment.
func NewRuntime(arch *isa.Microarch, env cgen.Environment) (*Runtime, error) {
	tc, err := cgen.Pick(env)
	if err != nil {
		return nil, err
	}
	return &Runtime{Arch: arch, Toolchain: tc, Machine: vm.NewMachine(arch),
		Cache: NewCompileCache()}, nil
}

// DefaultRuntime builds the paper's testbed: Haswell with gcc and icc
// installed.
func DefaultRuntime() *Runtime {
	rt, err := NewRuntime(isa.Haswell, cgen.HostEnvironment)
	if err != nil {
		panic(err) // HostEnvironment always has compilers
	}
	return rt
}

// Fork returns a runtime sharing this one's architecture, toolchain,
// compile cache and observability sinks but owning a private machine
// (counter, RNG, cache sim). Parallel sweep workers each fork the suite
// runtime so their counts never race while compiled artifacts are still
// shared; the fork's Span starts nil so each worker re-parents its own
// spans.
func (rt *Runtime) Fork() *Runtime {
	m := vm.NewMachine(rt.Arch)
	m.Workers = rt.Machine.Workers
	return &Runtime{Arch: rt.Arch, Toolchain: rt.Toolchain,
		Machine: m, Cache: rt.Cache, Disk: rt.Disk,
		Tracer: rt.Tracer, Metrics: rt.Metrics, Opt: rt.Opt,
		Backend: rt.Backend, Planner: rt.Planner}
}

// ForkTenant returns a runtime serving one tenant's work: Fork's
// shared-cache/private-machine split, optionally retargeted at a
// different microarchitecture (nil keeps the parent's). Compiled
// artifacts are still shared across tenants — the cache key includes
// the microarchitecture, so retargeted forks never cross-contaminate —
// while dynamic machine state (op counters, RNG, cache sim) stays
// private to the tenant. This is the isolation unit ngend hands each
// request: one process-wide compile cache serving many machines.
func (rt *Runtime) ForkTenant(arch *isa.Microarch) *Runtime {
	f := rt.Fork()
	if arch != nil && arch != rt.Arch {
		m := vm.NewMachine(arch)
		m.Workers = rt.Machine.Workers
		f.Arch = arch
		f.Machine = m
	}
	return f
}

// BackendName reports the cache-key name of the active execution
// backend ("vm" when interpreter-only).
func (rt *Runtime) BackendName() string { return rt.backendName() }

// NewKernel starts staging a kernel against this runtime's detected
// features.
func (rt *Runtime) NewKernel(name string) *dsl.Kernel {
	return dsl.NewKernel(name, rt.Arch.Features)
}

// UseBackend selects the named execution backend for subsequent
// compiles. "vm" (or "") restores the interpreter-only default. An
// unknown or unavailable backend returns an error with the reason; the
// runtime is left unchanged so the caller can report it and keep
// running on the vm.
func (rt *Runtime) UseBackend(name string) error {
	if name == "" || name == "vm" {
		rt.Backend = nil
		return nil
	}
	be, err := backend.Lookup(name)
	if err != nil {
		return err
	}
	if err := be.Available(); err != nil {
		return err
	}
	rt.Backend = be
	return nil
}

// backendName returns the cache-key name of the active backend.
func (rt *Runtime) backendName() string {
	if rt.Backend == nil {
		return "vm"
	}
	return rt.Backend.Name()
}

// backendCompile asks the active backend for an executable, attaching
// the disk cache as its artifact store first so built objects persist.
// A nil return with a reason means the kernel stays on the interpreter;
// backend compilation failures are routing decisions, never errors.
func (rt *Runtime) backendCompile(f *ir.Func, parent *obs.Span) (backend.Executable, string) {
	if rt.Backend == nil {
		return nil, ""
	}
	if sa, ok := rt.Backend.(backend.StoreAware); ok && rt.Disk != nil {
		sa.SetStore(rt.Disk)
	}
	sp := parent.Child("backend.compile")
	exe, err := rt.Backend.Compile(f)
	sp.SetAttr("backend", rt.Backend.Name())
	if err != nil {
		sp.SetAttr("fallback", err.Error())
		sp.End()
		rt.Metrics.Counter("backend.fallback").Add(1)
		return nil, err.Error()
	}
	sp.End()
	return exe, ""
}

// --- compile cache ----------------------------------------------------------

// cacheKey identifies one compiled artifact: the structural graph hash
// plus everything else that shapes the output — kernel name (embedded in
// the C translation unit and link command), microarchitecture (flags,
// feature checks), toolchain (command line) and lowering tier (opt vs
// plain interpreter programs differ).
type cacheKey struct {
	hash      uint64
	name      string
	arch      string
	toolchain string
	tier      kernelc.Tier
	// backend names the execution backend the artifact was compiled
	// for ("vm" for interpreter-only). Two backends may lower the same
	// graph to very different executables, so they never share an entry.
	backend string
}

// artifact is the immutable, machine-independent product of one compile:
// the staged function actually lowered, its executable program, the
// generated C, and the native compile command. Kernels wrap an artifact
// together with a runtime, so one artifact serves many machines.
type artifact struct {
	f       *ir.Func
	prog    *kernelc.Program
	source  string
	command string
	// verify is the static-analysis verdict the graph passed on its way
	// to code generation (warnings only — errors abort the build). It
	// rides in the cache with the artifact, so hits reuse the verdict.
	verify *irverify.Result
	// exec, when non-nil, is the backend executable tried ahead of prog;
	// fallback records why the backend declined this kernel (empty when
	// exec is set or no backend was requested).
	exec     backend.Executable
	fallback string
	// choice is the planner's view of the artifact, resolved on its
	// first planned call (see autoplan.go); static runtimes never read
	// it.
	choice choice

	// countOnce guards countPrefix, the key prefix behind
	// Kernel.CountKey: kernel name and graph hash when the program's
	// kernelc proof admitted the graph, "" when it did not. Like verify
	// it rides with the artifact, so every cache hit shares one proof
	// run and one count-only skeleton (both owned by prog); it is
	// derived on first use and never persisted.
	countOnce   sync.Once
	countPrefix string
}

// countKeyPrefix returns the artifact's count-key prefix, running the
// proof on first use.
func (a *artifact) countKeyPrefix() string {
	a.countOnce.Do(func() {
		if a.prog.Proof() == "" {
			a.countPrefix = fmt.Sprintf("%s#%016x", a.f.Name, ir.Hash(a.f))
		}
	})
	return a.countPrefix
}

// run executes the artifact: the backend executable first, re-routing
// to the interpreter program when a call signals backend.ErrFallback.
func (a *artifact) run(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	if a.exec != nil {
		out, err := a.exec.Run(m, args...)
		if !errors.Is(err, backend.ErrFallback) {
			return out, err
		}
	}
	return a.prog.Run(m, args...)
}

// CompileCache memoizes compile artifacts across runtimes.
type CompileCache struct {
	mu      sync.RWMutex
	entries map[cacheKey]*artifact
	fmu     sync.Mutex
	flight  map[cacheKey]*flightCall
	hits    atomic.Int64
	misses  atomic.Int64
	dedups  atomic.Int64
}

// NewCompileCache creates an empty cache.
func NewCompileCache() *CompileCache {
	return &CompileCache{
		entries: map[cacheKey]*artifact{},
		flight:  map[cacheKey]*flightCall{},
	}
}

// flightCall is one in-progress compile other goroutines wait on
// instead of duplicating the work.
type flightCall struct {
	done chan struct{}
	art  *artifact
	err  error
}

// once is the single-flight gate: the first caller for a key runs fn
// and publishes the artifact; concurrent callers for the same key block
// on that flight and share its result, so a fan-out of workers staging
// the same kernel compiles (and writes the persistent entry) exactly
// once. Failed flights are not cached — the next caller retries.
func (c *CompileCache) once(key cacheKey, fn func() (*artifact, error)) (*artifact, error) {
	c.fmu.Lock()
	if f, ok := c.flight[key]; ok {
		c.fmu.Unlock()
		c.dedups.Add(1)
		<-f.done
		return f.art, f.err
	}
	// Losing a lookup/insert race is legal; re-check under the flight
	// lock so a just-completed flight is observed instead of re-run.
	c.mu.RLock()
	art, ok := c.entries[key]
	c.mu.RUnlock()
	if ok {
		c.fmu.Unlock()
		return art, nil
	}
	f := &flightCall{done: make(chan struct{})}
	c.flight[key] = f
	c.fmu.Unlock()

	f.art, f.err = fn()
	if f.err == nil {
		f.art = c.insert(key, f.art)
	}
	c.fmu.Lock()
	delete(c.flight, key)
	c.fmu.Unlock()
	close(f.done)
	return f.art, f.err
}

// lookup returns the cached artifact for key, counting a hit or miss.
func (c *CompileCache) lookup(key cacheKey) (*artifact, bool) {
	c.mu.RLock()
	art, ok := c.entries[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return art, ok
}

// insert stores art under key unless another goroutine won the compile
// race, in which case the first-stored artifact is kept and returned so
// every caller shares one program.
func (c *CompileCache) insert(key cacheKey, art *artifact) *artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.entries[key]; ok {
		return prev
	}
	c.entries[key] = art
	return art
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
	// Deduped counts misses that piggybacked on another goroutine's
	// in-flight compile of the same key instead of compiling again.
	Deduped int64
}

// Stats returns hit/miss counters and the live entry count.
func (c *CompileCache) Stats() CacheStats {
	c.mu.RLock()
	n := len(c.entries)
	c.mu.RUnlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(),
		Entries: n, Deduped: c.dedups.Load()}
}

// CacheStats reports the runtime's compile-cache effectiveness. A
// runtime with the cache disabled reports zeros.
func (rt *Runtime) CacheStats() CacheStats {
	if rt.Cache == nil {
		return CacheStats{}
	}
	return rt.Cache.Stats()
}

// PublishMetrics is the one runtime publisher. It syncs every
// snapshot-style statistic the runtime's parts already keep into r,
// each name under prefix: compile-cache and disk-cache totals, full
// graph compiles, interpreter frame-pool, arena and parallel-tier
// traffic, backend and planner statistics, and the machine's dynamic op
// counts under vm.op.*. ngen and bench.Suite publish with prefix "",
// ngend with "server.". Idempotent; callers publish right before each
// metrics snapshot. No-op without a registry.
func (rt *Runtime) PublishMetrics(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	set := func(name string, v int64) { r.Gauge(prefix + name).Set(v) }
	st := rt.CacheStats()
	set("ngen.cache.hits", st.Hits)
	set("ngen.cache.misses", st.Misses)
	set("ngen.cache.entries", int64(st.Entries))
	set("ngen.cache.deduped", st.Deduped)
	set("ngen.compile.full", FullCompiles())
	gets, news := kernelc.PoolStats()
	set("kernelc.pool.gets", gets)
	set("kernelc.pool.news", news)
	resets, slots := kernelc.ArenaStats()
	set("vec.arena.resets", resets)
	set("vec.arena.slots", slots)
	eligible, runs, fallbacks, chunks, steals := kernelc.ParStats()
	set("kernelc.par.eligible", eligible)
	set("kernelc.par.runs", runs)
	set("kernelc.par.fallbacks", fallbacks)
	set("kernelc.par.chunks", chunks)
	set("kernelc.par.steals", steals)
	if rt.Disk != nil {
		ds := rt.Disk.Stats()
		set("ngen.disk.hits", ds.Hits)
		set("ngen.disk.misses", ds.Misses)
		set("ngen.disk.stores", ds.Stores)
		set("ngen.disk.corrupt", ds.Corrupt)
		set("ngen.disk.evictions", ds.Evictions)
	}
	// Backend build/load statistics publish as backend.<name>.<stat>
	// through an optional interface, so core stays ignorant of concrete
	// backend internals.
	if bc, ok := rt.Backend.(interface{ Counters() map[string]int64 }); ok {
		for k, v := range bc.Counters() {
			set("backend."+rt.Backend.Name()+"."+k, v)
		}
	}
	// Cost-model health: how many distinct intrinsic names were priced
	// through the defensive fallback (each also logs once — a nonzero
	// gauge means the op table needs a row).
	set("machine.unknown_op", machine.UnknownOpCount())
	// Planner decision/calibration traffic and plan-table size, when
	// auto-planning is on.
	if rt.Planner != nil {
		for k, v := range rt.Planner.Stats() {
			set("plan."+k, v)
		}
		set("plan.plans", int64(len(rt.Planner.Snapshot())))
	}
	rt.Machine.Counts.Publish(r, prefix+"vm.op.")
}

// Kernel is a compiled, callable kernel. The zero-allocation Call path
// reuses per-kernel conversion scratch, so a Kernel must not be Called
// from multiple goroutines at once — compile (cheap on cache hits) one
// Kernel per goroutine instead. CallValues has no such restriction.
type Kernel struct {
	rt  *Runtime
	art *artifact

	// Observability: the precomputed span name ("call:<kernel>") and the
	// invocation counter (nil when metrics are disabled).
	spanName string
	calls    *obs.Counter

	// Reused argument-conversion state for Call: value boxes, pin
	// records, and one pinned buffer per argument position.
	vals    []vm.Value
	pins    []pinnedArg
	argBufs []*vm.Buffer
}

// Compile runs the full pipeline on a staged kernel: ISA validation, C
// generation with JNI binding, (simulated) native compilation, and
// executable lowering. Results are memoized on (graph hash, name,
// microarch, toolchain); repeat compiles of a structurally identical
// kernel return a fresh Kernel wrapping the cached artifact.
func (rt *Runtime) Compile(k *dsl.Kernel) (*Kernel, error) {
	sp := rt.span("ngen.compile")
	defer sp.End()
	sp.SetAttr("kernel", k.Name()).SetAttr("arch", rt.Arch.Name)
	if miss := k.MissingISAs(); len(miss) > 0 {
		return nil, fmt.Errorf("core: %s uses unavailable ISAs:\n  %s",
			k.Name(), strings.Join(miss, "\n  "))
	}
	if rt.Cache == nil {
		art, err := rt.build(k, sp)
		if err != nil {
			return nil, err
		}
		return rt.newKernel(art), nil
	}
	key := cacheKey{
		hash:      ir.Hash(k.F),
		name:      k.Name(),
		arch:      rt.Arch.Name,
		toolchain: rt.Toolchain.Name + " " + rt.Toolchain.Version,
		tier:      rt.Opt,
		backend:   rt.backendName(),
	}
	if sp != nil {
		sp.SetAttr("hash", fmt.Sprintf("%016x", key.hash))
	}
	art, ok := rt.Cache.lookup(key)
	if ok {
		// The verifier verdict is part of the artifact: alignment facts
		// feed ir.Hash, so a hit is guaranteed to have verified clean
		// against the same facts.
		sp.SetAttr("cache", "hit")
	} else {
		sp.SetAttr("cache", "miss")
		var err error
		art, err = rt.Cache.once(key, func() (*artifact, error) {
			return rt.compileKey(k, key, sp)
		})
		if err != nil {
			return nil, err
		}
	}
	return rt.newKernel(art), nil
}

// compileKey produces the artifact for one cache key, consulting the
// persistent tier before paying for a full graph compile. A disk hit
// reuses the stored verifier verdict, generated C, and link command and
// only re-runs lowering — the dlopen analog. Full compiles are written
// back so the next process starts warm.
func (rt *Runtime) compileKey(k *dsl.Kernel, key cacheKey, parent *obs.Span) (*artifact, error) {
	if rt.Disk != nil {
		fp := rt.diskFingerprint()
		dsp := parent.Child("diskcache.load")
		ent, ok := rt.Disk.load(key, fp)
		dsp.End()
		if ok {
			parent.SetAttr("disk", "hit")
			// The backend re-resolves its own artifact here too: with the
			// disk cache attached as its store, a warm native run loads
			// the built plugin without touching the toolchain.
			art, err := rt.lower(k.F, parent)
			if err == nil {
				art.source, art.command, art.verify = ent.Source, ent.Command, ent.Verify
				return art, nil
			}
			// A persisted entry that no longer lowers predates an
			// interpreter change the fingerprint missed: fall through to
			// a full rebuild, which overwrites it.
		} else {
			parent.SetAttr("disk", "miss")
		}
	}
	art, err := rt.build(k, parent)
	if err != nil {
		return nil, err
	}
	if rt.Disk != nil {
		ssp := parent.Child("diskcache.store")
		rt.Disk.store(key, rt.diskFingerprint(), art)
		ssp.End()
	}
	return art, nil
}

// fullCompiles counts uncached graph compiles — runs of the full
// verify → cgen → lower → link pipeline — across every runtime in the
// process. The cachepersist CI gate asserts a warm-disk-cache run keeps
// this at zero.
var fullCompiles atomic.Int64

// FullCompiles returns how many full graph compiles the process has
// performed (cache hits at either tier do not count).
func FullCompiles() int64 { return fullCompiles.Load() }

// ResetFullCompiles zeroes the full-compile counter (tests).
func ResetFullCompiles() { fullCompiles.Store(0) }

// newKernel wraps an artifact for this runtime, precomputing the
// per-call span name so the Call hot path never concatenates.
func (rt *Runtime) newKernel(art *artifact) *Kernel {
	return &Kernel{rt: rt, art: art, spanName: "call:" + art.f.Name,
		calls: rt.Metrics.Counter("ngen.kernel.call")}
}

// build runs the uncached pipeline, one child span per stage.
func (rt *Runtime) build(k *dsl.Kernel, parent *obs.Span) (*artifact, error) {
	fullCompiles.Add(1)
	sp := parent.Child("irverify.run")
	res := irverify.Verify(k.F, rt.Arch)
	sp.End()
	rt.Metrics.Counter("verify.errors").Add(int64(res.Errors()))
	rt.Metrics.Counter("verify.warnings").Add(int64(res.Warnings()))
	if !res.Ok() {
		return nil, fmt.Errorf("core: %s failed verification:\n%s", k.Name(), res.Render())
	}

	sp = parent.Child("cgen.emit")
	src, err := cgen.Emit(k.F, cgen.Options{JNI: true, Package: "ch.ethz.acl.ngen", Class: "NKernel"})
	sp.End()
	if err != nil {
		return nil, err
	}
	art, err := rt.lower(k.F, parent)
	if err != nil {
		return nil, err
	}
	prog := art.prog
	// The optimizer's per-compile yield, as a span (structure) and as
	// counters (totals across compiles).
	sp = parent.Child("opt.run")
	sp.SetAttr("tier", rt.Opt.String()).
		SetAttr("hoisted", fmt.Sprint(prog.Hoisted())).
		SetAttr("strength", fmt.Sprint(prog.Strength())).
		SetAttr("chains", fmt.Sprint(prog.FusedChains()))
	sp.End()
	rt.Metrics.Counter("opt.hoisted").Add(int64(prog.Hoisted()))
	rt.Metrics.Counter("opt.strength").Add(int64(prog.Strength()))
	rt.Metrics.Counter("opt.fused.chain").Add(int64(prog.FusedChains()))
	sp = parent.Child("toolchain.link")
	lib := "lib" + k.Name() + ".so"
	art.command = rt.Toolchain.CommandLine(rt.Arch.Features, k.Name()+".c", lib)
	sp.End()
	art.source, art.verify = src, res
	return art, nil
}

// lower is the half of a compile that a full build and a disk hit
// share: interpreter lowering at the runtime's tier, then the backend
// executable.
func (rt *Runtime) lower(f *ir.Func, parent *obs.Span) (*artifact, error) {
	sp := parent.Child("kernelc.compile")
	prog, err := kernelc.CompileTier(f, rt.Opt)
	sp.End()
	if err != nil {
		return nil, err
	}
	art := &artifact{f: f, prog: prog}
	art.exec, art.fallback = rt.backendCompile(f, parent)
	return art, nil
}

// Source returns the generated C translation unit.
func (kn *Kernel) Source() string { return kn.art.source }

// CompileCommand returns the (simulated) native compiler invocation.
func (kn *Kernel) CompileCommand() string { return kn.art.command }

// Func exposes the staged function that was lowered (for the cost
// model's chain analysis). On cache hits this is the first-compiled
// structurally identical instance, keeping its symbol ids consistent
// with the cached program's internal counters.
func (kn *Kernel) Func() *ir.Func { return kn.art.f }

// BackendFallback reports why the requested execution backend declined
// this kernel at compile time ("" when it compiled, or when no backend
// beyond the interpreter was requested). The kernel still runs — on the
// vm — so this is diagnostic, surfaced by the CLI's backend report.
func (kn *Kernel) BackendFallback() string { return kn.art.fallback }

// Verify exposes the static-analysis verdict the kernel's graph passed
// before code generation. On cache hits this is the verdict of the
// first-compiled structurally identical instance — ir.Hash covers the
// facts the verifier consumes, so the verdict transfers.
func (kn *Kernel) Verify() *irverify.Result { return kn.art.verify }

// CountKey returns the key under which one invocation's dynamic counts
// can stand in for another's, and false when they cannot: the graph
// failed kernelc.Program.Proof, or args do not match its parameter kinds.
// The key is the kernel name and ir.Hash of its graph followed by
// kernelc.CountKey's argument shapes, so two CallValues with equal keys
// count identical op streams — including the one jni.call — and fail
// or succeed alike, whatever the memory contents and float arguments.
// The verdict is computed once per compiled artifact.
func (kn *Kernel) CountKey(args []vm.Value) (string, bool) {
	prefix := kn.art.countKeyPrefix()
	if prefix == "" {
		return "", false
	}
	return kernelc.CountKey(prefix, kn.art.f, args)
}

// pinnedArg records one pinned slice argument so results copy back to
// the caller on exit. Exactly one slice field is set.
type pinnedArg struct {
	buf *vm.Buffer
	f32 []float32
	f64 []float64
	i8  []int8
	u8  []uint8
	i16 []int16
	u16 []uint16
	i32 []int32
}

func (p *pinnedArg) copyBack() {
	switch {
	case p.f32 != nil:
		p.buf.UnpinF32(p.f32)
	case p.f64 != nil:
		p.buf.UnpinF64(p.f64)
	case p.i8 != nil:
		for j := range p.i8 {
			p.i8[j] = int8(p.buf.Data[j])
		}
	case p.u8 != nil:
		copy(p.u8, p.buf.Data)
	case p.i16 != nil:
		for j := range p.i16 {
			p.i16[j] = int16(p.buf.IntAt(j))
		}
	case p.u16 != nil:
		for j := range p.u16 {
			p.u16[j] = uint16(p.buf.IntAt(j))
		}
	case p.i32 != nil:
		p.buf.UnpinI32(p.i32)
	}
}

// Call invokes the kernel with Go values. Slices pin into vm buffers on
// entry and copy back on exit — the GetPrimitiveArrayCritical behaviour
// of Section 3.5 — and each invocation counts one JNI crossing. The
// value boxes and pinned buffers are owned by the Kernel and reused
// across calls, so steady-state invocation does not allocate.
func (kn *Kernel) Call(args ...any) (vm.Value, error) {
	sp := kn.rt.span(kn.spanName)
	kn.calls.Add(1)
	m := kn.rt.Machine
	if cap(kn.vals) < len(args) {
		kn.vals = make([]vm.Value, len(args))
		kn.pins = make([]pinnedArg, 0, len(args))
		kn.argBufs = make([]*vm.Buffer, len(args))
	}
	vals := kn.vals[:len(args)]
	kn.pins = kn.pins[:0]
	for i, a := range args {
		switch x := a.(type) {
		case []float32:
			buf := vm.RepinF32(kn.argBufs[i], x)
			kn.argBufs[i] = buf
			kn.pins = append(kn.pins, pinnedArg{buf: buf, f32: x})
			vals[i] = vm.PtrValue(buf, 0)
		case []float64:
			buf := vm.RepinF64(kn.argBufs[i], x)
			kn.argBufs[i] = buf
			kn.pins = append(kn.pins, pinnedArg{buf: buf, f64: x})
			vals[i] = vm.PtrValue(buf, 0)
		case []int8:
			buf := vm.RepinI8(kn.argBufs[i], x)
			kn.argBufs[i] = buf
			kn.pins = append(kn.pins, pinnedArg{buf: buf, i8: x})
			vals[i] = vm.PtrValue(buf, 0)
		case []uint8:
			buf := vm.RepinU8(kn.argBufs[i], x)
			kn.argBufs[i] = buf
			kn.pins = append(kn.pins, pinnedArg{buf: buf, u8: x})
			vals[i] = vm.PtrValue(buf, 0)
		case []int16:
			buf := vm.RepinI16(kn.argBufs[i], x)
			kn.argBufs[i] = buf
			kn.pins = append(kn.pins, pinnedArg{buf: buf, i16: x})
			vals[i] = vm.PtrValue(buf, 0)
		case []uint16:
			buf := vm.RepinU16(kn.argBufs[i], x)
			kn.argBufs[i] = buf
			kn.pins = append(kn.pins, pinnedArg{buf: buf, u16: x})
			vals[i] = vm.PtrValue(buf, 0)
		case []int32:
			buf := vm.RepinI32(kn.argBufs[i], x)
			kn.argBufs[i] = buf
			kn.pins = append(kn.pins, pinnedArg{buf: buf, i32: x})
			vals[i] = vm.PtrValue(buf, 0)
		case *vm.Buffer:
			vals[i] = vm.PtrValue(x, 0)
		case float32:
			vals[i] = vm.F32Value(x)
		case float64:
			vals[i] = vm.F64Value(x)
		case int:
			vals[i] = vm.IntValue(x)
		case int32:
			vals[i] = vm.IntValue(int(x))
		case int64:
			vals[i] = vm.Value{Kind: ir.KindI64, I: x}
		case bool:
			vals[i] = vm.BoolValue(x)
		default:
			return vm.Value{}, fmt.Errorf("core: unsupported argument type %T", a)
		}
	}
	m.Counts.Add(JNICall, 1)
	out, err := kn.run(m, vals...)
	for i := range kn.pins {
		kn.pins[i].copyBack()
	}
	sp.End()
	return out, err
}

// CallValues invokes the kernel with prebuilt machine values (the
// benchmark harness pins buffers once and reuses them across
// repetitions). One JNI crossing is still counted per invocation.
func (kn *Kernel) CallValues(args ...vm.Value) (vm.Value, error) {
	sp := kn.rt.span(kn.spanName)
	kn.calls.Add(1)
	kn.rt.Machine.Counts.Add(JNICall, 1)
	out, err := kn.run(kn.rt.Machine, args...)
	sp.End()
	return out, err
}

// CountValues adds to the runtime machine's counter exactly what
// CallValues(args...) would count — the one jni.call and the kernel's
// op stream, on every backend, since the native prelude reproduces the
// vm's count stream — without executing the kernel. It opens no
// call:<kernel> span and bumps no ngen.kernel.call counter: nothing
// runs. When the artifact's program cannot prove the counts (see
// kernelc.Program.Count) it returns an error wrapping
// kernelc.ErrNotCounted, counter untouched, and the caller executes.
// The planner calibrates from the calls it sees, so a planned runtime's
// callers keep calling CallValues.
func (kn *Kernel) CountValues(args ...vm.Value) error {
	m := kn.rt.Machine
	if err := kn.art.prog.Count(m, args...); err != nil {
		return err
	}
	m.Counts.Add(JNICall, 1)
	return nil
}

// MustCall is Call that panics on error (examples and benchmarks).
func (kn *Kernel) MustCall(args ...any) vm.Value {
	out, err := kn.Call(args...)
	if err != nil {
		panic(err)
	}
	return out
}

// SystemReport renders the runtime's view of the machine — the
// "TestPlatform" inspection of the artifact (Appendix A.4).
func (rt *Runtime) SystemReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPU:       %s (%s), %.2f GHz\n", rt.Arch.Name, rt.Arch.Vendor, rt.Arch.BaseGHz)
	fmt.Fprintf(&b, "Caches:    L1 %dKB, L2 %dKB, L3 %dMB\n",
		rt.Arch.L1Bytes>>10, rt.Arch.L2Bytes>>10, rt.Arch.L3Bytes>>20)
	fmt.Fprintf(&b, "ISAs:      %s\n", rt.Arch.Features)
	fmt.Fprintf(&b, "Compiler:  %s %s (%s)\n", rt.Toolchain.Name, rt.Toolchain.Version, rt.Toolchain.Path)
	fmt.Fprintf(&b, "Flags:     %s\n", strings.Join(rt.Toolchain.Flags(rt.Arch.Features), " "))
	return b.String()
}
