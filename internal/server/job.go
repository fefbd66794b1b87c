package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/plan"
)

// State is a job lifecycle state. Transitions are strictly
// pending → running → one of the terminal states; cancel moves a
// pending or running job to StateCancelled.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// states lists every lifecycle state, so per-state gauges read 0 once
// no job is in a state instead of keeping their last nonzero value.
var states = []State{StatePending, StateRunning, StateDone, StateFailed, StateCancelled}

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec is the client-supplied half of a job — the POST /v1/jobs body.
// Type selects which fields matter: "stage" and "execute" use
// Kernel/Machine/N, "sweep" uses Figure/Quick/Sizes/Workers.
type Spec struct {
	Type   string `json:"type"`
	Tenant string `json:"tenant,omitempty"`

	// Stage + execute requests.
	Kernel  string `json:"kernel,omitempty"`
	Machine string `json:"machine,omitempty"`
	N       int    `json:"n,omitempty"`

	// Sweep requests.
	Figure string `json:"figure,omitempty"`
	Quick  bool   `json:"quick,omitempty"`
	Sizes  []int  `json:"sizes,omitempty"`
	// Workers bounds the sweep's point-measurement parallelism (the
	// ngen -j knob). 0 means 1; results are identical at any setting.
	Workers int `json:"workers,omitempty"`
}

// Record is the persisted, client-visible job state: the spec plus
// lifecycle, timestamps, and — once done — the inline result payload.
type Record struct {
	ID         string `json:"id"`
	Spec       Spec   `json:"spec"`
	State      State  `json:"state"`
	Error      string `json:"error,omitempty"`
	Result     string `json:"result,omitempty"`
	ResultType string `json:"result_type,omitempty"`
	// Cached marks a job answered from the result cache — it never
	// occupied a queue slot or executed anything.
	Cached bool `json:"cached,omitempty"`
	// CoalescedWith names the leader job whose single execution this
	// job shared (request coalescing).
	CoalescedWith string `json:"coalesced_with,omitempty"`
	// Resumed marks a sweep job re-adopted after a daemon restart; it
	// continues from its persisted checkpoints instead of starting
	// over.
	Resumed bool `json:"resumed,omitempty"`
	// Plan records the adaptive planner's decisions touching this job
	// (per kernel × size bucket: chosen strategy, predicted and
	// measured cost, full candidate table). Empty when the planner is
	// off or the job executed nothing.
	Plan       []plan.View `json:"plan,omitempty"`
	CreatedNS  int64       `json:"created_ns"`
	StartedNS  int64       `json:"started_ns,omitempty"`
	FinishedNS int64       `json:"finished_ns,omitempty"`
}

// job is one queued unit of work: the record under its own lock, the
// cancellation context the executor polls, and the progress stream.
type job struct {
	mu     sync.Mutex
	rec    Record
	ctx    context.Context
	cancel context.CancelFunc
	stream *stream

	// specHash is the canonical content hash of the spec — the
	// single-flight and result-cache key. Set once at submission,
	// before the job is visible to any other goroutine.
	specHash string
	// followers are coalesced jobs riding this job's execution: they
	// mirror its stream events and adopt its terminal record. Guarded
	// by mu; frozen once the record turns terminal.
	followers []*job

	// persistMu orders the job's record writes: persist snapshots and
	// writes under it, so a write of an older state (a submitter racing
	// the worker that already finished the job) can never land after a
	// newer one and leave the stored record behind the live one.
	persistMu sync.Mutex

	// ckpt accumulates the sweep's completed-point checkpoints; ckptMu
	// also orders the store writes so the persisted file never goes
	// backwards. Only sweep jobs use these.
	ckptMu sync.Mutex
	ckpt   map[int][]bench.PointCkpt
}

// snapshot returns a copy of the record for rendering.
func (j *job) snapshot() Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// index is the in-memory job table: id → job, plus submission order
// for listings and the id sequence (recovered from the store on boot).
type index struct {
	mu   sync.Mutex
	jobs map[string]*job
	seq  int
}

func newIndex() *index { return &index{jobs: map[string]*job{}} }

// add registers a new job under a fresh id.
func (ix *index) add(spec Spec) *job {
	ctx, cancel := context.WithCancel(context.Background())
	ix.mu.Lock()
	ix.seq++
	j := &job{
		rec: Record{
			ID:        fmt.Sprintf("j%06d", ix.seq),
			Spec:      spec,
			State:     StatePending,
			CreatedNS: time.Now().UnixNano(),
		},
		ctx:    ctx,
		cancel: cancel,
		stream: newStream(),
	}
	ix.jobs[j.rec.ID] = j
	ix.mu.Unlock()
	return j
}

// adopt registers a job recovered from the store, keeping the id
// sequence ahead of every recovered id.
func (ix *index) adopt(rec Record) *job {
	j := &job{rec: rec, stream: newStream()}
	if rec.State.Terminal() {
		j.stream.close()
	}
	ix.mu.Lock()
	ix.jobs[rec.ID] = j
	var n int
	if _, err := fmt.Sscanf(rec.ID, "j%d", &n); err == nil && n > ix.seq {
		ix.seq = n
	}
	ix.mu.Unlock()
	return j
}

// readopt registers a recovered non-terminal job for re-execution
// (sweep resume): unlike adopt it gets a live context and an open
// stream, because the job is going back on the queue.
func (ix *index) readopt(rec Record) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{rec: rec, ctx: ctx, cancel: cancel, stream: newStream()}
	ix.mu.Lock()
	ix.jobs[rec.ID] = j
	var n int
	if _, err := fmt.Sscanf(rec.ID, "j%d", &n); err == nil && n > ix.seq {
		ix.seq = n
	}
	ix.mu.Unlock()
	return j
}

// drop unregisters a job that never made it into the queue (admission
// rejection) so it leaves no trace in listings or the store.
func (ix *index) drop(j *job) {
	j.cancel()
	ix.mu.Lock()
	delete(ix.jobs, j.rec.ID)
	ix.mu.Unlock()
}

// get looks a job up by id.
func (ix *index) get(id string) (*job, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	j, ok := ix.jobs[id]
	return j, ok
}

// all returns the registered jobs in no particular order. Callers lock
// each job only after the index lock is released: submitCoalescing
// holds a leader's lock while it adds a follower to the index.
func (ix *index) all() []*job {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	jobs := make([]*job, 0, len(ix.jobs))
	for _, j := range ix.jobs {
		jobs = append(jobs, j)
	}
	return jobs
}

// list returns record snapshots sorted by id (= submission order).
func (ix *index) list() []Record {
	jobs := ix.all()
	out := make([]Record, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// stats counts jobs per lifecycle state and sums their streams'
// fan-out drops in one pass, copying no record.
func (ix *index) stats() (map[State]int, int64) {
	counts := map[State]int{}
	var dropped int64
	for _, j := range ix.all() {
		j.mu.Lock()
		counts[j.rec.State]++
		j.mu.Unlock()
		dropped += j.stream.droppedCount()
	}
	return counts, dropped
}
