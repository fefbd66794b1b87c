package core

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/kernelc"
)

// diskRuntime builds a fresh runtime (empty in-memory cache) attached
// to the given persistent cache directory, as `ngen -cachedir` does.
func diskRuntime(t *testing.T, dir string) *Runtime {
	t.Helper()
	rt := DefaultRuntime()
	d, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt.Disk = d
	return rt
}

// TestDiskCacheColdWarm is the cachepersist contract: a cold process
// pays one graph compile and stores the artifact; a fresh process
// sharing the directory performs zero graph compiles yet produces an
// identical artifact and a working program.
func TestDiskCacheColdWarm(t *testing.T) {
	dir := t.TempDir()

	rt1 := diskRuntime(t, dir)
	ResetFullCompiles()
	kn1, err := rt1.Compile(stageSumSquares(rt1))
	if err != nil {
		t.Fatal(err)
	}
	if got := FullCompiles(); got != 1 {
		t.Fatalf("cold compile: %d graph compiles, want 1", got)
	}
	if st := rt1.Disk.Stats(); st.Misses != 1 || st.Stores != 1 || st.Hits != 0 {
		t.Fatalf("cold disk stats %+v, want 1 miss / 1 store", st)
	}

	// Fresh runtime, fresh in-memory cache, same directory: the warm
	// path must lower from the persisted entry without a graph compile.
	rt2 := diskRuntime(t, dir)
	ResetFullCompiles()
	kn2, err := rt2.Compile(stageSumSquares(rt2))
	if err != nil {
		t.Fatal(err)
	}
	if got := FullCompiles(); got != 0 {
		t.Fatalf("warm compile: %d graph compiles, want 0", got)
	}
	if st := rt2.Disk.Stats(); st.Hits != 1 || st.Misses != 0 || st.Stores != 0 {
		t.Fatalf("warm disk stats %+v, want 1 hit", st)
	}
	if kn1.Source() != kn2.Source() || kn1.CompileCommand() != kn2.CompileCommand() {
		t.Fatal("warm artifact diverges from the cold one")
	}
	out, err := kn2.Call(10)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(285); out.I != want { // sum i^2, i<10
		t.Fatalf("warm-loaded kernel computed %d, want %d", out.I, want)
	}
}

// TestDiskCacheCorruptionTolerance: a truncated or scribbled entry must
// count as corrupt, be deleted, fall back to a full rebuild, and be
// rewritten so the next process hits again.
func TestDiskCacheCorruptionTolerance(t *testing.T) {
	dir := t.TempDir()
	rt1 := diskRuntime(t, dir)
	if _, err := rt1.Compile(stageSumSquares(rt1)); err != nil {
		t.Fatal(err)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("want exactly one persisted entry, got %v (%v)", ents, err)
	}
	if err := os.WriteFile(ents[0], []byte(`{"hash":"scribble`), 0o644); err != nil {
		t.Fatal(err)
	}

	rt2 := diskRuntime(t, dir)
	ResetFullCompiles()
	if _, err := rt2.Compile(stageSumSquares(rt2)); err != nil {
		t.Fatal(err)
	}
	if st := rt2.Disk.Stats(); st.Corrupt != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("corrupt-entry stats %+v, want 1 corrupt / 1 miss / 1 store", st)
	}
	if got := FullCompiles(); got != 1 {
		t.Fatalf("corrupt entry must force a full rebuild, got %d", got)
	}

	rt3 := diskRuntime(t, dir)
	if _, err := rt3.Compile(stageSumSquares(rt3)); err != nil {
		t.Fatal(err)
	}
	if st := rt3.Disk.Stats(); st.Hits != 1 {
		t.Fatalf("rewritten entry should hit, stats %+v", st)
	}
}

// TestDiskCacheLRUEviction drives eviction white-box: three entries
// under a two-entry budget, with the oldest entry's LRU position
// refreshed by a hit, must evict the middle (least recently used) one.
func TestDiskCacheLRUEviction(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.maxBytes = 1 << 30 // hold eviction off while sizing
	fp := "test-fp"
	key := func(h uint64) cacheKey {
		return cacheKey{hash: h, name: "k", arch: "haswell", toolchain: "gcc", tier: kernelc.TierOpt}
	}
	art := &artifact{source: strings.Repeat("x", 512), command: "cc"}

	d.store(key(1), fp, art)
	size := func() int64 {
		info, err := os.Stat(filepath.Join(dir, d.name(key(1), fp)))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}()
	d.store(key(2), fp, art)

	// Touch entry 1 with a far-future mtime so it is the most recently
	// used despite being written first.
	prev := durable.Now
	durable.Now = func() time.Time { return time.Now().Add(time.Hour) }
	defer func() { durable.Now = prev }()
	if _, ok := d.load(key(1), fp); !ok {
		t.Fatal("entry 1 should load")
	}

	// Budget for two entries; storing the third must evict entry 2.
	d.maxBytes = 2*size + size/2
	d.store(key(3), fp, art)

	if st := d.Stats(); st.Evictions != 1 {
		t.Fatalf("want exactly 1 eviction, stats %+v", st)
	}
	if _, ok := d.load(key(2), fp); ok {
		t.Fatal("entry 2 (least recently used) should have been evicted")
	}
	if _, ok := d.load(key(1), fp); !ok {
		t.Fatal("entry 1 (refreshed) should have survived")
	}
	if _, ok := d.load(key(3), fp); !ok {
		t.Fatal("entry 3 (just stored) should have survived")
	}
}

// TestSingleFlightDedup holds N-1 concurrent compiles of one key on a
// single flight: the builder runs once, every caller gets the same
// artifact, and the dedup counter records the waiters.
func TestSingleFlightDedup(t *testing.T) {
	c := NewCompileCache()
	key := cacheKey{hash: 7, name: "k", arch: "haswell", toolchain: "gcc", tier: kernelc.TierOpt}
	const n = 8
	release := make(chan struct{})
	var calls atomic.Int32
	want := &artifact{source: "once"}

	var wg sync.WaitGroup
	arts := make([]*artifact, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			arts[i], errs[i] = c.once(key, func() (*artifact, error) {
				calls.Add(1)
				<-release
				return want, nil
			})
		}()
	}
	// Wait until every other caller is parked on the flight, then let
	// the builder finish.
	deadline := time.Now().Add(5 * time.Second)
	for c.dedups.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers joined the flight", c.dedups.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("builder ran %d times, want 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || arts[i] != want {
			t.Fatalf("caller %d got (%v, %v), want the shared artifact", i, arts[i], errs[i])
		}
	}
	if st := c.Stats(); st.Deduped != n-1 {
		t.Fatalf("Deduped = %d, want %d", st.Deduped, n-1)
	}

	// A failed flight must not poison the cache: the next caller
	// re-runs the builder.
	calls.Store(0)
	key2 := key
	key2.hash = 8
	if _, err := c.once(key2, func() (*artifact, error) {
		calls.Add(1)
		return nil, os.ErrInvalid
	}); err == nil {
		t.Fatal("failing builder should surface its error")
	}
	if art, err := c.once(key2, func() (*artifact, error) {
		calls.Add(1)
		return want, nil
	}); err != nil || art != want {
		t.Fatalf("retry after failed flight got (%v, %v)", art, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("failed flight must not be cached; builder ran %d times, want 2", got)
	}
}
