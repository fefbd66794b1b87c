package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
)

// Result-cache byte budgets (zero Config fields pick these).
const (
	defaultResultMemBudget  = 64 << 20  // 64 MiB of in-memory entries
	defaultResultDiskBudget = 256 << 20 // 256 MiB under <cachedir>/results
)

// resultEntry is one cached terminal result, keyed by the canonical
// spec hash. The canonical spec itself is stored alongside as the
// collision guard (a 64-bit hash can collide; serving the wrong
// figure must not be possible).
type resultEntry struct {
	Spec       Spec   `json:"spec"`
	Result     string `json:"result"`
	ResultType string `json:"result_type"`
}

func (e resultEntry) size() int64 { return int64(len(e.Result)) }

// matches guards against hash collisions and stale-format entries: the
// stored canonical spec must equal the requested one exactly.
func (e resultEntry) matches(canon Spec) bool {
	a, _ := json.Marshal(e.Spec)
	b, _ := json.Marshal(canon)
	return string(a) == string(b)
}

// resultCache is the spec-keyed result store: a byte-budgeted
// memory map in LRU order in front of an optional on-disk layer of
// sealed res-<hash>.json files in internal/durable (atomic writes,
// checksum-validated loads, mtime-LRU eviction refreshed by disk hits,
// corrupt files removed and counted). A disk entry surviving a restart
// is what makes a warm daemon answer repeated sweeps without executing
// anything.
type resultCache struct {
	mu         sync.Mutex
	mem        map[string]resultEntry
	order      []string // LRU order, oldest first
	memBytes   int64
	memBudget  int64
	files      *durable.Dir // nil = memory-only
	diskBudget int64

	hits, misses, stores, evictions atomic.Int64
}

// newResultCache builds the cache; dir "" skips the disk layer, and
// non-positive budgets pick the defaults.
func newResultCache(dir string, memBudget, diskBudget int64) (*resultCache, error) {
	if memBudget <= 0 {
		memBudget = defaultResultMemBudget
	}
	if diskBudget <= 0 {
		diskBudget = defaultResultDiskBudget
	}
	rc := &resultCache{
		mem:        map[string]resultEntry{},
		memBudget:  memBudget,
		diskBudget: diskBudget,
	}
	if dir != "" {
		files, err := durable.OpenDir(dir)
		if err != nil {
			return nil, fmt.Errorf("server: result cache: %w", err)
		}
		rc.files = files
	}
	return rc, nil
}

func resultName(hash string) string { return "res-" + hash + ".json" }

// get looks a canonical spec up by hash: memory first, then disk (a
// disk hit promotes the entry back into memory).
func (rc *resultCache) get(hash string, canon Spec) (resultEntry, bool) {
	rc.mu.Lock()
	if e, ok := rc.mem[hash]; ok && e.matches(canon) {
		rc.touch(hash)
		rc.mu.Unlock()
		rc.hits.Add(1)
		return e, true
	}
	rc.mu.Unlock()

	if rc.files != nil {
		if e, ok := rc.load(hash, canon); ok {
			rc.mu.Lock()
			rc.insertMem(hash, e)
			rc.mu.Unlock()
			rc.hits.Add(1)
			return e, true
		}
	}
	rc.misses.Add(1)
	return resultEntry{}, false
}

// put stores one terminal result under its spec hash, in memory and —
// when the disk layer exists — durably.
func (rc *resultCache) put(hash string, canon Spec, result, resultType string) {
	e := resultEntry{Spec: canon, Result: result, ResultType: resultType}
	rc.mu.Lock()
	rc.insertMem(hash, e)
	rc.mu.Unlock()
	rc.stores.Add(1)
	if rc.files == nil {
		return
	}
	if err := rc.files.Put(resultName(hash), e); err != nil {
		fmt.Printf("ngend: result cache write failed: %v\n", err)
		return
	}
	rc.evictions.Add(int64(rc.files.Sweep("res-*.json", rc.diskBudget)))
}

// insertMem adds or refreshes a memory entry and evicts LRU entries
// past the byte budget. Callers hold rc.mu.
func (rc *resultCache) insertMem(hash string, e resultEntry) {
	if old, ok := rc.mem[hash]; ok {
		rc.memBytes -= old.size()
	}
	rc.mem[hash] = e
	rc.memBytes += e.size()
	rc.touch(hash)
	for rc.memBytes > rc.memBudget && len(rc.order) > 1 {
		oldest := rc.order[0]
		rc.order = rc.order[1:]
		if victim, ok := rc.mem[oldest]; ok {
			rc.memBytes -= victim.size()
			delete(rc.mem, oldest)
			rc.evictions.Add(1)
		}
	}
}

// touch moves hash to the MRU end of the order. Callers hold rc.mu.
func (rc *resultCache) touch(hash string) {
	for i, h := range rc.order {
		if h == hash {
			rc.order = append(rc.order[:i], rc.order[i+1:]...)
			break
		}
	}
	rc.order = append(rc.order, hash)
}

// load reads one disk entry and refreshes its LRU position. A corrupt
// file, or one holding another spec, is removed and counted.
func (rc *resultCache) load(hash string, canon Spec) (resultEntry, bool) {
	name := resultName(hash)
	var e resultEntry
	if !rc.files.Get(name, &e) {
		return resultEntry{}, false
	}
	if !e.matches(canon) {
		rc.files.Reject(name)
		return resultEntry{}, false
	}
	rc.files.Touch(name)
	return e, true
}

// corrupt reports how many disk entries failed to load.
func (rc *resultCache) corrupt() int64 {
	if rc.files == nil {
		return 0
	}
	return rc.files.Corrupt()
}

// memSize reports the current in-memory byte footprint.
func (rc *resultCache) memSize() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.memBytes
}
