package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/ir"
	"repro/internal/kernelc"
	"repro/internal/vm"
)

// stubBackend is a test double standing in for a real execution
// backend: it hands out executables that defer every call to the
// interpreter via ErrFallback, or refuses to compile at all.
type stubBackend struct {
	name    string
	refuse  error
	runErr  error
	runHits int
}

func (s *stubBackend) Name() string     { return s.name }
func (s *stubBackend) Available() error { return nil }

func (s *stubBackend) Compile(f *ir.Func) (backend.Executable, error) {
	if s.refuse != nil {
		return nil, s.refuse
	}
	return stubExec{s}, nil
}

type stubExec struct{ b *stubBackend }

func (e stubExec) Run(m *vm.Machine, args ...vm.Value) (vm.Value, error) {
	e.b.runHits++
	if e.b.runErr != nil {
		return vm.Value{}, e.b.runErr
	}
	return vm.Value{}, backend.ErrFallback
}

// TestBackendCacheKeyIsolation pins the cache-key contract: the same
// graph compiled under different backends (or the interpreter default)
// occupies distinct entries in the shared compile cache, and only the
// backend-compiled artifact carries an executable.
func TestBackendCacheKeyIsolation(t *testing.T) {
	rtVM := DefaultRuntime()
	rtNat := rtVM.Fork()
	rtNat.Backend = &stubBackend{name: "stub"}

	knVM, err := rtVM.Compile(stageDouble(rtVM))
	if err != nil {
		t.Fatal(err)
	}
	knNat, err := rtNat.Compile(stageDouble(rtNat))
	if err != nil {
		t.Fatal(err)
	}
	if got := rtVM.Cache.Stats().Entries; got != 2 {
		t.Fatalf("vm and stub artifacts share the cache: %d entries, want 2", got)
	}
	if knVM.art.exec != nil {
		t.Error("interpreter-only artifact carries a backend executable")
	}
	if knNat.art.exec == nil {
		t.Error("backend artifact lost its executable")
	}
	// Recompiling under each runtime must hit its own entry, not the
	// other backend's.
	before := rtVM.Cache.Stats().Hits
	if _, err := rtVM.Compile(stageDouble(rtVM)); err != nil {
		t.Fatal(err)
	}
	if _, err := rtNat.Compile(stageDouble(rtNat)); err != nil {
		t.Fatal(err)
	}
	st := rtVM.Cache.Stats()
	if st.Entries != 2 || st.Hits != before+2 {
		t.Fatalf("recompiles missed their backend-keyed entries: %+v", st)
	}
}

// TestBackendCompileFallbackIsNotAnError pins the graceful-degradation
// contract: a backend that cannot lower a kernel does not fail the
// compile — the kernel lands on the interpreter and the reason is
// retained for reporting.
func TestBackendCompileFallbackIsNotAnError(t *testing.T) {
	rt := DefaultRuntime()
	rt.Backend = &stubBackend{name: "stub", refuse: errors.New("no emitter for _mm256_mul_ps")}
	kn, err := rt.Compile(stageDouble(rt))
	if err != nil {
		t.Fatalf("backend refusal escaped as a compile error: %v", err)
	}
	if got := kn.BackendFallback(); got != "no emitter for _mm256_mul_ps" {
		t.Fatalf("fallback reason = %q", got)
	}
	xs := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := kn.Call(xs, len(xs)); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 2 {
		t.Fatalf("kernel did not run on the interpreter after fallback: %v", xs)
	}
}

// TestBackendPerCallFallbackRouting pins the ErrFallback routing: an
// executable that declines a call sends it to the interpreter, which
// must still produce the correct result.
func TestBackendPerCallFallbackRouting(t *testing.T) {
	rt := DefaultRuntime()
	sb := &stubBackend{name: "stub"}
	rt.Backend = sb
	kn, err := rt.Compile(stageDouble(rt))
	if err != nil {
		t.Fatal(err)
	}
	xs := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := kn.Call(xs, len(xs)); err != nil {
		t.Fatal(err)
	}
	if sb.runHits != 1 {
		t.Fatalf("backend executable saw %d calls, want 1", sb.runHits)
	}
	if xs[0] != 2 {
		t.Fatalf("interpreter did not serve the declined call: %v", xs)
	}
	// A genuine backend error, by contrast, must surface.
	sb.runErr = errors.New("kernelc: double_all: boom")
	if _, err := kn.Call(xs, len(xs)); err == nil || err.Error() != "kernelc: double_all: boom" {
		t.Fatalf("backend error did not surface: %v", err)
	}
}

// TestDiskKeyBackendIsolation pins the persistent tier's key contract:
// entries for the same graph hash under different backends map to
// distinct files, and an entry never matches a key naming another
// backend.
func TestDiskKeyBackendIsolation(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	kv := cacheKey{hash: 0xabcd, name: "k", arch: "hsw", toolchain: "icc 16", tier: kernelc.TierOpt, backend: "vm"}
	kn := kv
	kn.backend = "native"
	if d.name(kv, "fp") == d.name(kn, "fp") {
		t.Fatal("vm and native disk entries share a file")
	}
	ent := &diskEntry{Hash: "000000000000abcd", Kernel: "k", Arch: "hsw",
		Toolchain: "icc 16", Tier: kernelc.TierOpt.String(), Backend: "vm", Fingerprint: "fp"}
	if !ent.matches(kv, "fp") {
		t.Fatal("entry does not match its own key")
	}
	if ent.matches(kn, "fp") {
		t.Fatal("vm entry matched a native key")
	}
}

// TestBlobSidecarRoundtrip pins the ArtifactStore implementation: blobs
// round-trip through their canonical path and survive JSON-entry
// eviction (a mapped plugin cannot be deleted usefully).
func TestBlobSidecarRoundtrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir, 1) // 1-byte budget: every store evicts
	if err != nil {
		t.Fatal(err)
	}
	var _ backend.ArtifactStore = d // compile-time interface check
	if _, ok := d.LoadBlob("deadbeef"); ok {
		t.Fatal("load hit on an empty store")
	}
	p, err := d.StoreBlob("deadbeef", []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if p != d.BlobPath("deadbeef") {
		t.Fatalf("store path %q is not canonical %q", p, d.BlobPath("deadbeef"))
	}
	got, ok := d.LoadBlob("deadbeef")
	if !ok || got != p {
		t.Fatalf("LoadBlob = %q, %v", got, ok)
	}
	// Force an eviction pass via a JSON store; the sidecar must survive.
	key := cacheKey{hash: 1, name: "k", arch: "a", toolchain: "t", backend: "vm"}
	d.store(key, "fp", &artifact{})
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("eviction removed the blob sidecar: %v", err)
	}
	ents, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(ents) != 0 {
		t.Fatalf("1-byte budget left %d json entries", len(ents))
	}
}
