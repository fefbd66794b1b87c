package core

// Persistent second level of the compile cache. The in-memory
// CompileCache dies with the process, so every `ngen` invocation used
// to re-verify and re-emit every kernel it touched. DiskCache stores
// the machine-independent compile products — generated C, native
// compile command, verifier verdict — content-addressed by the same
// key the memory cache uses (graph hash ⊕ kernel ⊕ microarch ⊕
// toolchain ⊕ tier) plus a toolchain fingerprint (Go runtime version,
// persistence format, feature set), so a stale or foreign entry can
// never be mistaken for a hit.
//
// A disk hit skips verification and C generation — the expensive
// "graph compile" — and goes straight to interpreter lowering, the
// analog of dlopen'ing a previously built shared object. Every file
// goes through internal/durable: writes are atomic, a corrupt or
// mismatched entry is deleted, counted, and falls back to a full
// rebuild, and the directory is kept under a byte budget by
// least-recently-used eviction (hits refresh mtimes).

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/irverify"
)

// persistVersion is bumped whenever the entry schema or the meaning of
// a field changes; it is folded into the fingerprint, so old entries
// miss instead of misparse. v2 added the execution-backend dimension to
// the key; v3 moved entries into the durable envelope.
const persistVersion = 3

// DefaultDiskCacheBytes is the eviction budget used by the CLI.
const DefaultDiskCacheBytes = 256 << 20

// DiskCache is an on-disk, content-addressed compile cache directory.
type DiskCache struct {
	files    *durable.Dir
	maxBytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64
}

// OpenDiskCache opens (creating if needed) a cache directory with the
// given eviction budget in bytes (≤0 selects DefaultDiskCacheBytes).
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskCacheBytes
	}
	files, err := durable.OpenDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: disk cache: %w", err)
	}
	return &DiskCache{files: files, maxBytes: maxBytes}, nil
}

// Dir returns the cache directory.
func (d *DiskCache) Dir() string { return d.files.Root() }

// DiskCacheStats is a point-in-time view of persistent-cache traffic.
type DiskCacheStats struct {
	Hits, Misses, Stores, Corrupt, Evictions int64
}

// Stats returns the cache's cumulative counters.
func (d *DiskCache) Stats() DiskCacheStats {
	return DiskCacheStats{
		Hits: d.hits.Load(), Misses: d.misses.Load(), Stores: d.stores.Load(),
		Corrupt: d.files.Corrupt(), Evictions: d.evictions.Load(),
	}
}

// diskEntry is the persisted form of one artifact. Program closures
// cannot serialise, so the entry carries everything needed to rebuild
// one cheaply: the verifier verdict (skipping irverify) and the
// generated C and link command (skipping cgen). Interpreter lowering
// re-runs on load — that is the dlopen analog, not a graph compile.
type diskEntry struct {
	Hash        string           `json:"hash"`
	Kernel      string           `json:"kernel"`
	Arch        string           `json:"arch"`
	Toolchain   string           `json:"toolchain"`
	Tier        string           `json:"tier"`
	Backend     string           `json:"backend"`
	Fingerprint string           `json:"fingerprint"`
	Source      string           `json:"source"`
	Command     string           `json:"command"`
	Verify      *irverify.Result `json:"verify"`
}

// matches verifies the entry belongs to (key, fingerprint).
func (e *diskEntry) matches(key cacheKey, fp string) bool {
	return e.Hash == fmt.Sprintf("%016x", key.hash) &&
		e.Kernel == key.name &&
		e.Arch == key.arch &&
		e.Toolchain == key.toolchain &&
		e.Tier == key.tier.String() &&
		e.Backend == key.backend &&
		e.Fingerprint == fp
}

// name derives the entry filename: the graph hash plus an fnv of the
// remaining key dimensions, so kernels sharing a graph at different
// tiers, toolchains, or execution backends occupy distinct files.
func (d *DiskCache) name(key cacheKey, fp string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%s\x00%s",
		key.name, key.arch, key.toolchain, key.tier, key.backend, fp)
	return fmt.Sprintf("%016x-%016x.json", key.hash, h.Sum64())
}

// load returns the entry for (key, fingerprint) when present and
// intact. Corrupt or mismatched files are removed so the next store
// rewrites them.
func (d *DiskCache) load(key cacheKey, fp string) (*diskEntry, bool) {
	name := d.name(key, fp)
	var ent diskEntry
	if !d.files.Get(name, &ent) {
		d.misses.Add(1)
		return nil, false
	}
	if !ent.matches(key, fp) {
		d.files.Reject(name)
		d.misses.Add(1)
		return nil, false
	}
	d.hits.Add(1)
	d.files.Touch(name)
	return &ent, true
}

// store persists an artifact under (key, fingerprint), then enforces
// the byte budget over the JSON entries.
func (d *DiskCache) store(key cacheKey, fp string, art *artifact) {
	ent := &diskEntry{
		Hash:        fmt.Sprintf("%016x", key.hash),
		Kernel:      key.name,
		Arch:        key.arch,
		Toolchain:   key.toolchain,
		Tier:        key.tier.String(),
		Backend:     key.backend,
		Fingerprint: fp,
		Source:      art.source,
		Command:     art.command,
		Verify:      art.verify,
	}
	if d.files.Put(d.name(key, fp), ent) != nil {
		return
	}
	d.stores.Add(1)
	d.evictions.Add(int64(d.files.Sweep("*.json", d.maxBytes)))
}

// --- blob sidecars -----------------------------------------------------------
//
// Backend build products (native plugin objects) persist as opaque
// .so sidecars next to the JSON entries, satisfying
// backend.ArtifactStore. Sidecars are deliberately exempt from the
// LRU eviction sweep (which only considers .json files) and from the
// envelope (the plugin loader validates them): a loaded Go plugin
// stays mapped for the process lifetime, so deleting its file out from
// under a running process buys nothing, and the canonical path must
// stay stable because the plugin runtime keys loaded modules by path.

// BlobPath returns the canonical sidecar path for key, whether or not
// a blob exists there.
func (d *DiskCache) BlobPath(key string) string {
	return d.files.Path("blob-" + key + ".so")
}

// LoadBlob reports the canonical path of the stored blob for key, if
// present.
func (d *DiskCache) LoadBlob(key string) (string, bool) {
	p := d.BlobPath(key)
	if _, err := os.Stat(p); err != nil {
		return "", false
	}
	return p, true
}

// StoreBlob atomically writes data under key and returns its canonical
// path.
func (d *DiskCache) StoreBlob(key string, data []byte) (string, error) {
	p := d.BlobPath(key)
	if err := durable.WriteFile(p, data); err != nil {
		return "", err
	}
	return p, nil
}

// --- plan sidecars -----------------------------------------------------------
//
// Calibrated execution plans (internal/plan) persist as sealed
// plan-<id>.json entries in the same directory, satisfying plan.Store.
// They are ordinary .json files, so the LRU eviction sweep covers them
// — a plan is regenerable by recalibration, exactly like a compile
// entry is by recompilation — and a corrupt one is removed and counted
// like a compile entry. Plans are write-once: the planner never
// rewrites a calibrated plan, so warm runs leave the files
// byte-identical (the planner-determinism test pins this).

func planName(id string) string { return "plan-" + id + ".json" }

// LoadPlan returns the persisted plan bytes for id, if present and
// intact.
func (d *DiskCache) LoadPlan(id string) ([]byte, bool) {
	var raw json.RawMessage
	if !d.files.Get(planName(id), &raw) {
		return nil, false
	}
	d.files.Touch(planName(id))
	return raw, true
}

// StorePlan atomically writes the plan bytes under id.
func (d *DiskCache) StorePlan(id string, data []byte) error {
	return d.files.Put(planName(id), json.RawMessage(data))
}

// diskFingerprint identifies everything outside the cache key that
// shapes a persisted artifact: the Go toolchain that built this
// binary, the persistence schema, and the exact feature set behind the
// microarchitecture name.
func (rt *Runtime) diskFingerprint() string {
	return fmt.Sprintf("%s;fmt%d;%s", runtime.Version(), persistVersion, rt.Arch.Features)
}
