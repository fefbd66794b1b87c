package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/isa"
)

// Retry-After clamp bounds: never tell a client to hammer faster than
// 1s, never to go away for more than a minute.
const (
	retryAfterMin = 1
	retryAfterMax = 60
)

// retryAfterSeconds estimates when a queue slot will free up: the
// recent mean job service time (the server.job.us histogram the
// executor feeds) times the backlog each worker faces. With no
// history yet it falls back to the minimum — optimistic, but the next
// rejection will know better.
func (s *Server) retryAfterSeconds() int {
	mean := s.Reg.Histogram("server.job.us").Snapshot().Mean() // µs
	if mean <= 0 {
		return retryAfterMin
	}
	backlog := len(s.queue) + s.cfg.Workers // queued + likely in-flight
	secs := int(math.Ceil(mean * float64(backlog) / float64(s.cfg.Workers) / 1e6))
	if secs < retryAfterMin {
		return retryAfterMin
	}
	if secs > retryAfterMax {
		return retryAfterMax
	}
	return secs
}

// Handler builds the daemon's route table. Every route is wrapped in
// the obs HTTP middleware, so /metrics carries per-endpoint request
// counts, status classes and latency histograms with no further
// plumbing.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, s.Reg.InstrumentHTTP(name, h))
	}
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /metrics", "metrics", s.handleMetrics)
	route("GET /v1/kernels", "kernels", s.handleKernels)
	route("GET /v1/tenants", "tenants", s.handleTenants)
	route("POST /v1/stage", "stage", s.handleStage)
	route("POST /v1/jobs", "jobs.submit", s.handleSubmit)
	route("GET /v1/jobs", "jobs.list", s.handleList)
	route("GET /v1/jobs/{id}", "jobs.get", s.handleGet)
	route("GET /v1/jobs/{id}/result", "jobs.result", s.handleResult)
	route("GET /v1/jobs/{id}/stream", "jobs.stream", s.handleStream)
	route("POST /v1/jobs/{id}/cancel", "jobs.cancel", s.handleCancel)
	return mux
}

// writeJSON emits one JSON response body, indented for curl users.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
		return
	}
	w.Write(append(data, '\n'))
}

type errorBody struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// Healthz is the GET /healthz body: liveness only. Every number about
// the daemon's state is on /metrics.
type Healthz struct {
	Status  string `json:"status"` // "ok" | "draining"
	Machine string `json:"machine"`
	Backend string `json:"backend"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, Healthz{Status: status, Machine: s.RT.Arch.Name, Backend: s.RT.BackendName()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.publishMetrics()
	w.Header().Set("Content-Type", "application/json")
	if err := s.Reg.WriteJSON(w); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
	}
}

// kernelInfo is one row of GET /v1/kernels.
type kernelInfo struct {
	Name       string `json:"name"`
	Executable bool   `json:"executable"`
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	exec := map[string]bool{}
	for _, name := range ExecutableKernels() {
		exec[name] = true
	}
	var out []kernelInfo
	for _, name := range StageableKernels() {
		out = append(out, kernelInfo{Name: name, Executable: exec[name]})
	}
	writeJSON(w, http.StatusOK, struct {
		Machine  string       `json:"machine"`
		Machines []string     `json:"machines"`
		Kernels  []kernelInfo `json:"kernels"`
	}{s.RT.Arch.Name, microarchNames(), out})
}

func microarchNames() []string {
	var out []string
	for _, m := range isa.Microarchs() {
		out = append(out, m.Name)
	}
	return out
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.tenants.list())
}

// handleStage compiles synchronously — staging is cheap (cached after
// the first hit) and callers want the artifact metadata inline.
func (s *Server) handleStage(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	spec.Type = "stage"
	if err := validateSpec(spec); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	arch, err := archFor(spec.Machine)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	t := s.tenants.get(spec.Tenant)
	jrt := t.fork(arch)
	res, err := stageKernel(jrt, spec.Kernel)
	t.absorb(jrt.Machine.Counts)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	j, err := s.submit(spec)
	switch err {
	case nil:
		writeJSON(w, http.StatusAccepted, j.snapshot())
	case errBusy:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeErr(w, http.StatusTooManyRequests, err)
	case errDraining:
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.list())
}

// jobFor resolves the {id} path segment, writing 404 on a miss.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleResult serves the raw result payload with the job's content
// type — for sweep jobs this is bytes-for-bytes the CLI figure table.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	rec := j.snapshot()
	switch rec.State {
	case StateDone:
		ctype := rec.ResultType
		if ctype == "" {
			ctype = "text/plain; charset=utf-8"
		}
		w.Header().Set("Content-Type", ctype)
		fmt.Fprint(w, rec.Result)
	case StateFailed, StateCancelled:
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s: %s", rec.ID, rec.State, rec.Error))
	default:
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s; poll or stream until done", rec.ID, rec.State))
	}
}

// handleStream serves the job's event history and then live NDJSON
// lines until the job reaches a terminal state or the client leaves.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	history, live := j.stream.subscribe()
	for _, line := range history {
		fmt.Fprintln(w, line)
	}
	flush()
	if live == nil {
		return
	}
	defer j.stream.unsubscribe(live)
	for {
		select {
		case line, open := <-live:
			if !open {
				return
			}
			fmt.Fprintln(w, line)
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	if !s.cancelJob(j) {
		writeErr(w, http.StatusConflict,
			fmt.Errorf("job %s is already %s", j.snapshot().ID, j.snapshot().State))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}
