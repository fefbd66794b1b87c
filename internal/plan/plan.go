// Package plan is the adaptive execution planner: for each (kernel
// graph, microarchitecture, working-set size bucket) it selects the
// fastest execution strategy — backend (vm interpreter or native
// plugin) and parallel lane count — by combining the analytical cost
// model's prediction with bounded online calibration. The runtime
// plans only kernels with a choice: one with no native executable on
// hand and no parallel lanes runs its single strategy unplanned.
//
// The paper's pipeline faces the same decision implicitly: when is the
// JNI crossing to a native kernel worth its fixed cost, and when does
// the managed tier win? Here the decision is explicit and measured.
// Strategy switching is safe by construction: every strategy executes
// the identical counted op stream (the tier/backend/parallel
// differential suites pin results, writes, and dynamic counts to be
// bit-identical), so the planner can only change wall-clock time, never
// figures or results.
//
// Lifecycle of one (hash, arch, bucket) key:
//
//  1. Unknown — Decide returns ok=false; the caller runs the default
//     strategy (vm/1, the zero-value runtime behavior), measures its
//     single-invocation op-count delta and wall time, and calls
//     Install with model-priced candidates followed by Observe for the
//     default run. Prediction (machine.PredictStrategies) prices every
//     admissible strategy.
//  2. Calibrating — Decide rotates through the candidates until each
//     has probeBudget timed probes. Probe runs are real
//     invocations serving real callers (exploration is amortized
//     across a benchmark's repeat loop, never extra work), they just
//     pick the strategy under test instead of the incumbent.
//  3. Calibrated — the candidate with the lowest exponentially
//     smoothed measured time wins; if that differs from the model's
//     pick, the plan.mispredict counter records it (the telemetry that
//     says where the cost model's host constants are off). The plan
//     persists once — write-once, atomic, checksummed — through the
//     attached Store, so a warm -cachedir process loads it and runs
//     zero exploration probes. The measurement table freezes with the
//     plan: post-calibration observations are ignored (they could only
//     drift the chosen row against its frozen rivals without informing
//     any decision), so the live table always agrees with the
//     persisted plan.
package plan

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
)

// Version is the persisted-plan schema version; bumped on any change
// to the file format so stale files miss instead of misparse. v2 moved
// the checksum out of the plan into the store's envelope; v3 dropped
// the spec's lowering tier, so a v2 plan that chose the plain tier can
// never route to a strategy the runtime no longer has; v4 dropped
// pruning, so a v3 plan calibrated without probing some candidates
// recalibrates.
const Version = 4

// probeBudget is how many timed runs each candidate gets before the
// plan calibrates, and alpha the exponential smoothing factor for
// measured times (new = alpha×sample + (1-alpha)×old).
const (
	probeBudget = 2
	alpha       = 0.3
)

// Key identifies one planning unit: a staged graph (by canonical
// structural hash), the microarchitecture it runs on, and the
// log2-size bucket of the invocation's working set. Buckets group
// nearby sizes so a sweep does not recalibrate at every point, while
// still separating the cache regimes where the best strategy flips.
type Key struct {
	Hash   uint64
	Arch   string
	Bucket int
}

// ID renders the key as a filesystem- and map-safe identifier, the
// persisted plan's filename stem.
func (k Key) ID() string {
	return fmt.Sprintf("%016x-%s-b%d", k.Hash, sanitize(k.Arch), k.Bucket)
}

func sanitize(s string) string {
	out := []byte(s)
	for i := 0; i < len(out); i++ {
		c := out[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// Bucket maps a working-set footprint in bytes to its size bucket
// (log2, so bucket n covers [2^n, 2^(n+1)) bytes; 0 covers 0–1).
func Bucket(bytes int64) int {
	b := 0
	for v := bytes; v > 1; v >>= 1 {
		b++
	}
	return b
}

// Candidate is one admissible strategy with its predicted and (once
// probed) measured cost.
type Candidate struct {
	Spec machine.StrategySpec `json:"spec"`
	// PredNs is the cost model's host-time prediction for one
	// invocation in this bucket.
	PredNs float64 `json:"pred_ns"`
	// MeasNs is the exponentially smoothed measured wall time per
	// invocation; 0 until the first probe lands.
	MeasNs float64 `json:"meas_ns"`
	// Probes counts timed runs folded into MeasNs.
	Probes int `json:"probes"`
}

// Decision is the planner's answer for one invocation.
type Decision struct {
	Spec machine.StrategySpec
	// Probe marks a calibration run: the caller should time the
	// invocation and report it via Observe.
	Probe bool
}

// Store persists calibrated plans between processes. core.DiskCache
// satisfies it with plan-<id>.json entries in the compile-cache
// directory, written and checksummed through internal/durable like
// compile artifacts: LoadPlan returns only intact bytes.
type Store interface {
	LoadPlan(id string) ([]byte, bool)
	StorePlan(id string, data []byte) error
}

// Planner holds the live plan table. Safe for concurrent use; forked
// runtimes share one Planner so calibration from any worker benefits
// all of them.
type Planner struct {
	mu    sync.Mutex
	store Store
	plans map[Key]*entry

	decisions    atomic.Int64 // planner-routed invocations
	probeRuns    atomic.Int64 // invocations that were calibration probes
	installs     atomic.Int64 // plans installed (priced cold)
	calibrations atomic.Int64 // plans that finished calibration
	mispredicts  atomic.Int64 // calibrated plans where measurement overruled the model
	loads        atomic.Int64 // plans loaded from the store
	persists     atomic.Int64 // plans written to the store
}

type entry struct {
	key        Key
	kernel     string
	cands      []Candidate
	chosen     int
	calibrated bool
	persisted  bool
}

// New creates a planner with no persistence.
func New() *Planner {
	return &Planner{plans: map[Key]*entry{}}
}

// SetStore attaches plan persistence (nil detaches it).
func (p *Planner) SetStore(s Store) {
	p.mu.Lock()
	p.store = s
	p.mu.Unlock()
}

// Decide returns the strategy to use for one invocation under key.
// ok=false means no plan exists yet: the caller must run the default
// strategy, then Install a priced plan and Observe that run.
func (p *Planner) Decide(key Key) (Decision, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.plans[key]
	if !ok {
		e, ok = p.loadLocked(key)
		if !ok {
			return Decision{}, false
		}
	}
	p.decisions.Add(1)
	if !e.calibrated {
		if idx := e.nextProbe(); idx >= 0 {
			p.probeRuns.Add(1)
			return Decision{Spec: e.cands[idx].Spec, Probe: true}, true
		}
		// Every candidate met its budget but the closing
		// Observe has not arrived yet (concurrent callers): serve the
		// current measured best meanwhile.
		p.finishLocked(e)
	}
	return Decision{Spec: e.cands[e.chosen].Spec}, true
}

// nextProbe picks the candidate with the fewest probes, if any still
// needs one.
func (e *entry) nextProbe() int {
	best, min := -1, probeBudget
	for i := range e.cands {
		if e.cands[i].Probes < min {
			best, min = i, e.cands[i].Probes
		}
	}
	return best
}

// Install registers a freshly priced plan for key. costs come from
// machine.PredictStrategies on the invocation's measured op-count
// delta; the first entry must be the default strategy the caller just
// ran, the safe incumbent. Every candidate is probed. Install is
// idempotent: a concurrent or repeated install for an existing key is
// ignored.
func (p *Planner) Install(key Key, kernel string, costs []machine.StrategyCost) {
	if len(costs) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.plans[key]; dup {
		return
	}
	e := &entry{key: key, kernel: kernel, cands: make([]Candidate, len(costs))}
	for i, c := range costs {
		e.cands[i] = Candidate{Spec: c.Spec, PredNs: c.HostNs}
	}
	p.plans[key] = e
	p.installs.Add(1)
}

// Observe folds one timed invocation into the plan. While the plan is
// calibrating this is a probe result; afterwards it keeps smoothing
// the incumbent's estimate (drift tracking — in memory only, the
// persisted plan never changes).
func (p *Planner) Observe(key Key, spec machine.StrategySpec, ns float64) {
	if ns <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.plans[key]
	if !ok {
		return
	}
	if e.calibrated {
		// The candidate table freezes at calibration: only probed
		// strategies re-measure, so further smoothing would drift the
		// chosen row against its frozen rivals — making the live table
		// disagree with the persisted plan and with the measured-argmin
		// invariant (`ngen plan -check`) — without ever informing a
		// decision, since calibrated plans are final.
		return
	}
	for i := range e.cands {
		if e.cands[i].Spec != spec {
			continue
		}
		c := &e.cands[i]
		if c.MeasNs == 0 {
			c.MeasNs = ns
		} else {
			c.MeasNs = alpha*ns + (1-alpha)*c.MeasNs
		}
		c.Probes++
		break
	}
	if !e.calibrated && e.nextProbe() < 0 {
		p.finishLocked(e)
	}
}

// finishLocked closes calibration: the measured argmin becomes the
// chosen strategy, a model disagreement counts as a mispredict, and
// the plan persists exactly once. Called with p.mu held.
func (p *Planner) finishLocked(e *entry) {
	if e.calibrated {
		return
	}
	measBest, predBest := -1, 0
	for i := range e.cands {
		c := &e.cands[i]
		if c.PredNs < e.cands[predBest].PredNs {
			predBest = i
		}
		if c.MeasNs == 0 {
			continue
		}
		if measBest < 0 || c.MeasNs < e.cands[measBest].MeasNs {
			measBest = i
		}
	}
	if measBest < 0 {
		// Nothing measured (should not happen — the default strategy is
		// always probed): keep the safe incumbent.
		measBest = 0
	}
	e.chosen = measBest
	e.calibrated = true
	p.calibrations.Add(1)
	if measBest != predBest {
		p.mispredicts.Add(1)
	}
	p.persistLocked(e)
}

// Calibrated reports whether key has a closed plan.
func (p *Planner) Calibrated(key Key) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.plans[key]
	return ok && e.calibrated
}

// --- persistence -------------------------------------------------------------

// planFile is the persisted form: the full candidate table (so `ngen
// plan` can render predicted-vs-measured on warm runs) and the chosen
// index. The Store guards the bytes; loadLocked checks the identity.
type planFile struct {
	Version    int         `json:"version"`
	Hash       string      `json:"hash"`
	Arch       string      `json:"arch"`
	Bucket     int         `json:"bucket"`
	Kernel     string      `json:"kernel"`
	Candidates []Candidate `json:"candidates"`
	Chosen     int         `json:"chosen"`
}

func (p *Planner) persistLocked(e *entry) {
	if p.store == nil || e.persisted {
		return
	}
	f := &planFile{
		Version: Version, Hash: fmt.Sprintf("%016x", e.key.Hash),
		Arch: e.key.Arch, Bucket: e.key.Bucket, Kernel: e.kernel,
		Candidates: e.cands, Chosen: e.chosen,
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return
	}
	if p.store.StorePlan(e.key.ID(), raw) == nil {
		e.persisted = true
		p.persists.Add(1)
	}
}

// loadLocked tries the store for a previously calibrated plan.
// Mismatched files are ignored (recalibration overwrites them).
// Called with p.mu held.
func (p *Planner) loadLocked(key Key) (*entry, bool) {
	if p.store == nil {
		return nil, false
	}
	raw, ok := p.store.LoadPlan(key.ID())
	if !ok {
		return nil, false
	}
	var f planFile
	if json.Unmarshal(raw, &f) != nil ||
		f.Version != Version ||
		f.Hash != fmt.Sprintf("%016x", key.Hash) ||
		f.Arch != key.Arch || f.Bucket != key.Bucket ||
		len(f.Candidates) == 0 ||
		f.Chosen < 0 || f.Chosen >= len(f.Candidates) {
		return nil, false
	}
	e := &entry{key: key, kernel: f.Kernel, cands: f.Candidates,
		chosen: f.Chosen, calibrated: true, persisted: true}
	p.plans[key] = e
	p.loads.Add(1)
	return e, true
}

// --- introspection -----------------------------------------------------------

// View is one plan rendered for telemetry: the chosen strategy with
// its predicted and measured cost, plus the full candidate table.
type View struct {
	Kernel     string      `json:"kernel"`
	Hash       string      `json:"hash"`
	Arch       string      `json:"arch"`
	Bucket     int         `json:"bucket"`
	Spec       string      `json:"spec"`
	PredNs     float64     `json:"pred_ns"`
	MeasNs     float64     `json:"meas_ns"`
	Calibrated bool        `json:"calibrated"`
	Candidates []Candidate `json:"candidates,omitempty"`
}

// Snapshot returns every live plan, sorted by kernel then bucket.
// Candidate slices are copied; mutating them is safe.
func (p *Planner) Snapshot() []View {
	p.mu.Lock()
	out := make([]View, 0, len(p.plans))
	for _, e := range p.plans {
		c := e.cands[e.chosen]
		v := View{
			Kernel: e.kernel, Hash: fmt.Sprintf("%016x", e.key.Hash),
			Arch: e.key.Arch, Bucket: e.key.Bucket,
			Spec: c.Spec.String(), PredNs: c.PredNs, MeasNs: c.MeasNs,
			Calibrated: e.calibrated,
			Candidates: append([]Candidate(nil), e.cands...),
		}
		out = append(out, v)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kernel != out[j].Kernel {
			return out[i].Kernel < out[j].Kernel
		}
		if out[i].Bucket != out[j].Bucket {
			return out[i].Bucket < out[j].Bucket
		}
		return out[i].Hash < out[j].Hash
	})
	return out
}

// KernelViews returns the plans for one kernel name (Snapshot order).
func (p *Planner) KernelViews(kernel string) []View {
	all := p.Snapshot()
	out := all[:0]
	for _, v := range all {
		if v.Kernel == kernel {
			out = append(out, v)
		}
	}
	return out
}

// Stats exposes the planner's cumulative counters for obs gauges
// (plan.* — see docs/OBSERVABILITY.md).
func (p *Planner) Stats() map[string]int64 {
	return map[string]int64{
		"decisions":  p.decisions.Load(),
		"probes":     p.probeRuns.Load(),
		"installs":   p.installs.Load(),
		"calibrated": p.calibrations.Load(),
		"mispredict": p.mispredicts.Load(),
		"loads":      p.loads.Load(),
		"persists":   p.persists.Load(),
	}
}
