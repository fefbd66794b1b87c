// Package native is the plugin-compiled execution backend: it
// specializes a staged SIMD graph into standalone Go source (the lane
// loops monomorphized, the interpreter's dispatch gone), builds it with
// the real Go toolchain as -buildmode=plugin, loads it in-process, and
// memoizes the built artifact in the compile cache so warm runs pay
// zero build cost. This is the reproduction's analogue of the paper's
// LMS→C→JNI pipeline, using Go's own native toolchain in place of icc.
//
// Semantics are bit-identical to the vm interpreter at every tier:
// results, memory writes, dynamic op counts, and error text all match
// (gated by the 18-kernel differential suite). Calls the plugin cannot
// serve faithfully — a machine with a cache simulator attached needs
// the interpreter's per-access Touch stream — return
// backend.ErrFallback and are transparently re-run on the vm.
package native

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/cgen"
	"repro/internal/ir"
	"repro/internal/kernelc"
	"repro/internal/vm"
)

func init() {
	backend.Register("native", func() backend.Backend { return New() })
}

// Backend builds and runs native plugin kernels. The zero value is
// usable; New is the conventional constructor. Not a singleton: each
// instance carries its own counters, but the loaded-plugin memo is
// process-wide (plugins cannot be unloaded).
type Backend struct {
	// Store persists built artifacts across processes (the compile
	// cache's blob sidecars). Nil means build-per-process.
	Store backend.ArtifactStore
	// GoTool overrides the go binary used for plugin builds. Empty
	// means auto-detect via cgen.FindGo. Tests point this at a
	// nonexistent file to force the build path to fail.
	GoTool string

	build   atomic.Int64 // plugin builds actually run
	loadhit atomic.Int64 // compiles served without a build (memo or blob)
	corrupt atomic.Int64 // artifacts that failed to load and were dropped
}

// New returns a backend with no artifact store attached.
func New() *Backend { return &Backend{} }

// SetStore attaches an artifact store (backend.StoreAware); the runtime
// points this at its disk cache so plugin objects survive the process.
func (b *Backend) SetStore(s backend.ArtifactStore) { b.Store = s }

// Name identifies the backend in cache keys and obs counters.
func (b *Backend) Name() string { return "native" }

// Counters exposes build/load statistics for obs gauge publication
// (core.PublishMetrics picks this up via an optional interface).
func (b *Backend) Counters() map[string]int64 {
	return map[string]int64{
		"build":   b.build.Load(),
		"loadhit": b.loadhit.Load(),
		"corrupt": b.corrupt.Load(),
	}
}

// Available reports whether this host can build and load plugins.
func (b *Backend) Available() error {
	if raceEnabled {
		return errors.New("native: race-instrumented hosts cannot load plugins")
	}
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd":
	default:
		return fmt.Errorf("native: -buildmode=plugin is unsupported on %s", runtime.GOOS)
	}
	if _, err := b.tool(); err != nil {
		return err
	}
	return nil
}

func (b *Backend) tool() (string, error) {
	if b.GoTool != "" {
		return b.GoTool, nil
	}
	return cgen.FindGo()
}

// Compile lowers the function to plugin code. Kernel semantics are
// tier-invariant (the optimizer differential suite pins plain and opt
// to identical observables), so every interpreter tier shares one
// plugin.
func (b *Backend) Compile(f *ir.Func) (backend.Executable, error) {
	src, table, err := generate(f)
	if err != nil {
		return nil, err
	}
	fn, err := b.resolve(contentKey(src), src)
	if err != nil {
		return nil, err
	}
	return newProgram(f, fn, table), nil
}

// CompileCached serves a compile only when the plugin is already built:
// process memo first, then the artifact store. It never invokes the Go
// toolchain, so the execution planner can call it from inside a
// measured run to see whether the native strategy is admissible without
// perturbing timings. Lowering to source still happens (it is the
// content key), but that is pure computation with no I/O.
func (b *Backend) CompileCached(f *ir.Func) (backend.Executable, bool) {
	if b.Available() != nil {
		return nil, false
	}
	src, table, err := generate(f)
	if err != nil {
		return nil, false
	}
	memoMu.Lock()
	fn := b.lookup(contentKey(src))
	memoMu.Unlock()
	if fn == nil {
		return nil, false
	}
	return newProgram(f, fn, table), true
}

// lookup serves a content key without building: process memo first,
// then the artifact store. A stored blob that does not load is corrupt
// or stale; it is removed and counted, and lookup returns nil as it
// does for a key it has not seen. The caller holds memoMu.
func (b *Backend) lookup(key string) runFn {
	if fn, ok := memo[key]; ok {
		b.loadhit.Add(1)
		return fn
	}
	if b.Store == nil {
		return nil
	}
	path, ok := b.Store.LoadBlob(key)
	if !ok {
		return nil
	}
	fn, err := openPlugin(path)
	if err != nil {
		os.Remove(path)
		b.corrupt.Add(1)
		return nil
	}
	b.loadhit.Add(1)
	memo[key] = fn
	return fn
}

// resolve turns a content key into a callable entry point: lookup
// first, then a real build. Single-flight under memoMu — concurrent
// builds of the same key from different temp paths would trip Go's
// "plugin already loaded" check.
func (b *Backend) resolve(key, src string) (runFn, error) {
	memoMu.Lock()
	defer memoMu.Unlock()
	if fn := b.lookup(key); fn != nil {
		return fn, nil
	}
	tool, err := b.tool()
	if err != nil {
		return nil, err
	}
	data, err := buildPlugin(tool, src, key)
	if err != nil {
		return nil, err
	}
	b.build.Add(1)
	var path string
	if b.Store != nil {
		if path, err = b.Store.StoreBlob(key, data); err != nil {
			return nil, err
		}
	} else {
		// No store: park the object in a temp dir for the process
		// lifetime (it cannot be deleted while mapped anyway).
		dir, err := os.MkdirTemp("", "ngen-native-run-")
		if err != nil {
			return nil, err
		}
		path = filepath.Join(dir, key+".so")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
	}
	fn, err := openPlugin(path)
	if err != nil {
		return nil, err
	}
	memo[key] = fn
	return fn, nil
}

// program is one compiled kernel: the host-side wrapper that passes
// vm.Values across the typed plugin ABI (runFn) and reconstructs the
// interpreter's exact observable behavior.
type program struct {
	fn      runFn
	name    string
	params  []ir.Sym
	resKind ir.Kind
	table   *kernelc.CountTable
	// pool holds the calls' crossings, so a steady-state call allocates
	// nothing and concurrent calls each hold their own.
	pool sync.Pool
}

// crossing is one call's plugin arguments and the dense counts the
// plugin adds into (see runFn). A pooled crossing's counts are clear
// and its bufs hold no buffer.
type crossing struct {
	bufs  [][]byte
	words []uint64
	cnt   []int64
	hit   []bool
}

func newProgram(f *ir.Func, fn runFn, t *kernelc.CountTable) *program {
	resKind := ir.KindVoid
	if r := f.G.Root().Result; r != nil {
		resKind = r.Type().Kind
	}
	p := &program{fn: fn, name: f.Name, params: f.Params, resKind: resKind, table: t}
	nb := 0
	for _, prm := range f.Params {
		if prm.Typ.Kind == ir.KindPtr {
			nb++
		}
	}
	p.pool.New = func() any {
		return &crossing{bufs: make([][]byte, nb), words: make([]uint64, len(f.Params)),
			cnt: make([]int64, len(t.Keys)), hit: make([]bool, len(t.Keys))}
	}
	return p
}

// Run executes the plugin. Calls it cannot serve identically to the
// interpreter return backend.ErrFallback; genuine kernel faults come
// back with the interpreter's error text.
func (p *program) Run(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	if m == nil || m.Cache != nil {
		// The cache simulator consumes the interpreter's per-access
		// Touch stream, which compiled code does not emit.
		return vm.Value{}, backend.ErrFallback
	}
	if len(args) != len(p.params) {
		return vm.Value{}, fmt.Errorf("kernelc: %s: got %d arguments, want %d", p.name, len(args), len(p.params))
	}
	c := p.pool.Get().(*crossing)
	if !c.fill(p.params, args) {
		p.release(c)
		return vm.Value{}, backend.ErrFallback
	}
	res, err := p.fn(c.bufs, c.words, c.cnt, c.hit)
	// Partial counts are flushed even on error, exactly like the
	// interpreter's counts of the loops completed before a mid-kernel
	// fault.
	p.table.Flush(m.Counts, c.cnt, c.hit)
	p.release(c)
	if err != nil {
		return vm.Value{}, fmt.Errorf("kernelc: %s: %w", p.name, err)
	}
	switch p.resKind {
	case ir.KindVoid:
		return vm.Value{}, nil
	case ir.KindBool:
		return vm.Value{Kind: ir.KindBool, B: res != 0}, nil
	case ir.KindF32, ir.KindF64:
		return vm.Value{Kind: p.resKind, F: math.Float64frombits(res)}, nil
	case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
		return vm.Value{Kind: p.resKind, U: res}, nil
	default:
		return vm.Value{Kind: p.resKind, I: int64(res)}, nil
	}
}

// fill lays the arguments out as the plugin reads them: a pointer as
// its buffer's bytes and its displacement word, a scalar as one word.
// It reports false for an argument whose kind or element type is not
// the parameter's, which the plugin cannot serve.
func (c *crossing) fill(params []ir.Sym, args []vm.Value) bool {
	nb := 0
	for i, prm := range params {
		a := &args[i]
		if prm.Typ.Kind == ir.KindPtr {
			if a.Mem == nil || a.Mem.Prim != prm.Typ.Elem {
				return false
			}
			c.bufs[nb] = a.Mem.Data
			c.words[i] = uint64(int64(a.Off))
			nb++
			continue
		}
		if a.Kind != prm.Typ.Kind {
			return false
		}
		switch prm.Typ.Kind {
		case ir.KindBool:
			c.words[i] = 0
			if a.B {
				c.words[i] = 1
			}
		case ir.KindF32, ir.KindF64:
			c.words[i] = math.Float64bits(a.F)
		case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
			c.words[i] = a.U
		default:
			c.words[i] = uint64(a.I)
		}
	}
	return true
}

// release returns a crossing to the pool without the buffers it
// referred to.
func (p *program) release(c *crossing) {
	clear(c.bufs)
	p.pool.Put(c)
}
