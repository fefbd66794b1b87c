package server

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/durable"
)

// fsStore persists job records and sweep checkpoints, one sealed file
// per job each, through internal/durable: a crash mid-write leaves
// either the old file or the new one, and a file that is torn, mangled
// or names another job is counted, removed, and skipped at load, never
// fatal.
type fsStore struct {
	files *durable.Dir
}

// openFSStore creates dir if needed and returns the store.
func openFSStore(dir string) (*fsStore, error) {
	files, err := durable.OpenDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: job store: %w", err)
	}
	return &fsStore{files: files}, nil
}

func jobName(id string) string  { return "job-" + id + ".json" }
func ckptName(id string) string { return "ckpt-" + id + ".json" }

// put persists one record (called on every state transition).
func (st *fsStore) put(rec Record) error {
	if st == nil {
		return nil
	}
	return st.files.Put(jobName(rec.ID), rec)
}

// loadAll reads every persisted record, skipping (and counting)
// corrupt files. Records return sorted by id so recovery replays in
// submission order.
func (st *fsStore) loadAll() ([]Record, error) {
	if st == nil {
		return nil, nil
	}
	names, err := st.files.Names("job-*.json")
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, name := range names {
		var rec Record
		if !st.files.Get(name, &rec) {
			continue
		}
		if rec.ID == "" || name != jobName(rec.ID) {
			st.files.Reject(name)
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// ckptFile is the persisted checkpoint state of one interrupted sweep
// job: every completed point's exact-bit payload, keyed by the
// forEachPoint index. A torn or mangled file loads as "no checkpoints"
// (the sweep re-measures everything), never as wrong data.
type ckptFile struct {
	JobID  string                    `json:"job_id"`
	Points map[int][]bench.PointCkpt `json:"points"`
}

// putCkpt persists a job's completed-point map. Called after every
// point, so the file tracks sweep progress closely enough that a kill
// loses at most the in-flight points.
func (st *fsStore) putCkpt(id string, points map[int][]bench.PointCkpt) error {
	if st == nil {
		return nil
	}
	return st.files.Put(ckptName(id), ckptFile{JobID: id, Points: points})
}

// loadCkpt reads a job's checkpoint map; a missing or corrupt file is
// nil, nil — resume then simply re-measures.
func (st *fsStore) loadCkpt(id string) (map[int][]bench.PointCkpt, error) {
	if st == nil {
		return nil, nil
	}
	var c ckptFile
	if !st.files.Get(ckptName(id), &c) {
		return nil, nil
	}
	if c.JobID != id {
		st.files.Reject(ckptName(id))
		return nil, nil
	}
	return c.Points, nil
}

// delCkpt removes a terminal job's checkpoint file — checkpoints only
// matter for jobs interrupted mid-flight.
func (st *fsStore) delCkpt(id string) {
	if st == nil {
		return
	}
	os.Remove(st.files.Path(ckptName(id)))
}

// Corrupt reports how many store files failed to load.
func (st *fsStore) Corrupt() int64 {
	if st == nil {
		return 0
	}
	return st.files.Corrupt()
}
