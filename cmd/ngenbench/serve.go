package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/irverify"
	"repro/internal/kernels"
	"repro/internal/server"
	"repro/internal/vm"
)

// The served traffic: a closed loop of serveConns keep-alive
// connections, each sending its next job as soon as it has read the
// last one's result, over blocks of mixBlock jobs.
const (
	serveConns = 2
	// execChecks is how many execute results are re-run on the library
	// path.
	execChecks = 100
	// mixBlock is the number of jobs the mix deals its counts over.
	mixBlock = 100
	// blocksPerSecond sets a run's work from its seconds: a fixed number
	// of blocks rather than as many as fit, so that the daemon's job
	// history, and with it its memory, is the same on a slow host as on
	// a fast one. A block takes about 0.3 s on the host the benchmark
	// was written on.
	blocksPerSecond = 2
)

// mix is the served traffic's composition per block of mixBlock
// jobs. Each block deals exactly these counts in seeded order, and
// the parameters are dealt the same way (see dealer), so every seed and
// every block send the same work and only its order and the parameters
// within each stratum vary.
var mix = []struct {
	kind  string
	count int
}{
	{"saxpy", 20},  // execute saxpy, n in [2^10, 2^14]
	{"dot32", 17},  // execute dot32, n a multiple of 32 in [2^12, 2^16]
	{"mmm", 13},    // execute mmm_blocked, n in {8, 16, …, 64}
	{"stage", 20},  // stage a kernel (dot512 excluded) on the daemon's machine, Haswell or SkylakeX
	{"sweep", 5},   // quick fig6a sweep over 3 sizes of the quick axis
	{"repeat", 25}, // exact repeat of an earlier spec
}

// dealer deals the cards 0…n-1 from a deck it reshuffles each time the
// deck runs out, so that over every n deals each card comes up once and
// the seed sets only the order.
type dealer struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDealer(rng *rand.Rand, n int) *dealer {
	d := &dealer{rng: rng, cards: make([]int, n), next: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *dealer) deal() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(a, b int) { d.cards[a], d.cards[b] = d.cards[b], d.cards[a] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// within deals a value in [lo, hi]: a uniform draw from the next of n
// equal strata of the range.
func (d *dealer) within(lo, hi int) int {
	width := float64(hi-lo+1) / float64(len(d.cards))
	return lo + int((float64(d.deal())+d.rng.Float64())*width)
}

// schedule deals blocks × mixBlock job specs from mix.
func schedule(seed uint64, blocks int) []server.Spec {
	rng := rand.New(rand.NewSource(int64(seed)))
	var deck []string
	perBlock := map[string]int{}
	for _, m := range mix {
		for i := 0; i < m.count; i++ {
			deck = append(deck, m.kind)
		}
		perBlock[m.kind] = m.count
	}
	var stageable []string
	for _, k := range server.StageableKernels() {
		if k != "dot512" {
			stageable = append(stageable, k)
		}
	}
	machines := []string{"", "Haswell", "SkylakeX"}
	quickAxis, _ := bench.FigureSizes("fig6a", true)
	var (
		kinds  = newDealer(rng, len(deck))
		saxpyN = newDealer(rng, perBlock["saxpy"])
		dotN   = newDealer(rng, perBlock["dot32"])
		mmmN   = newDealer(rng, 8)
		stages = newDealer(rng, len(stageable)*len(machines))
		sweeps = newDealer(rng, len(quickAxis))
	)

	out := make([]server.Spec, blocks*mixBlock)
	for i := range out {
		kind := deck[kinds.deal()]
		if kind == "repeat" && i == 0 {
			kind = "saxpy"
		}
		var sp server.Spec
		switch kind {
		case "repeat":
			sp = out[rng.Intn(i)]
		case "saxpy":
			sp = server.Spec{Type: "execute", Kernel: "saxpy", N: saxpyN.within(1<<10, 1<<14)}
		case "dot32":
			sp = server.Spec{Type: "execute", Kernel: "dot32", N: 32 * dotN.within(1<<7, 1<<11)}
		case "mmm":
			sp = server.Spec{Type: "execute", Kernel: "mmm_blocked", N: 8 * (1 + mmmN.deal())}
		case "stage":
			c := stages.deal()
			sp = server.Spec{Type: "stage", Kernel: stageable[c/len(machines)], Machine: machines[c%len(machines)]}
		case "sweep":
			var sizes []int
			for len(sizes) < 3 {
				if s := quickAxis[sweeps.deal()]; !slices.Contains(sizes, s) {
					sizes = append(sizes, s)
				}
			}
			sort.Ints(sizes)
			sp = server.Spec{Type: "sweep", Figure: "fig6a", Quick: true, Sizes: sizes}
		}
		out[i] = sp
	}
	return out
}

// serveSession is ngend in-process with cmd/ngend's defaults, its job
// store and compile cache in a fresh directory.
type serveSession struct {
	dir    string
	srv    *server.Server
	base   string
	client *http.Client
	specs  []server.Spec
	// keep marks the jobs whose result bodies the output checks read;
	// the client discards every other body as it arrives.
	keep []bool
}

func setupServe(cfg config) (session, map[string]float64, error) {
	t0 := time.Now()
	irverify.SpecIndex()
	parts := map[string]float64{"xmlspec.index_s": time.Since(t0).Seconds()}
	dir, err := os.MkdirTemp("", "ngend-")
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(server.Config{
		Addr:        "127.0.0.1:0",
		Workers:     1,
		Queue:       16,
		CacheDir:    filepath.Join(dir, "cache"),
		StoreDir:    filepath.Join(dir, "store"),
		ResultCache: true,
		Coalesce:    true,
		Resume:      true,
		Plan:        "auto",
	})
	if err == nil {
		err = srv.Start()
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	specs := schedule(cfg.seed, int(blocksPerSecond*cfg.seconds.Seconds()))
	return &serveSession{
		dir:  dir,
		srv:  srv,
		base: "http://" + srv.Addr(),
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}},
		specs: specs,
		keep:  checked(specs, cfg.seed),
	}, parts, nil
}

// checked picks the results the output checks read: every sweep, and a
// seeded sample of execChecks execute jobs.
func checked(specs []server.Spec, seed uint64) []bool {
	keep := make([]bool, len(specs))
	var execs []int
	for i, sp := range specs {
		switch sp.Type {
		case "sweep":
			keep[i] = true
		case "execute":
			execs = append(execs, i)
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(execs), func(i, j int) { execs[i], execs[j] = execs[j], execs[i] })
	for _, i := range execs[:min(execChecks, len(execs))] {
		keep[i] = true
	}
	return keep
}

func (s *serveSession) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// served is one request as the client saw it.
type served struct {
	id      string
	spec    server.Spec
	ok      bool
	latency time.Duration // submit → result body read
	submit  time.Duration // POST round trip
	fetch   time.Duration // result GET round trip
	body    []byte
}

func (s *serveSession) run(cfg config) (*result, error) {
	res := &result{Attempted: len(s.specs)}
	out := make([]served, len(s.specs))
	// A unit is one block: its jobs from the first submit to the last
	// result read. Between blocks nothing is in flight, and every block
	// starts from a collected heap, after a calibration burst at the
	// connections' parallelism: while one job runs on the worker, the
	// other connection's submit, stream and fetch keep the second CPU
	// busy.
	for lo := 0; lo < len(s.specs); lo += mixBlock {
		runtime.GC()
		res.calibrate(serveConns)
		t0 := time.Now()
		s.block(out, lo, min(lo+mixBlock, len(s.specs)))
		res.UnitsMs = append(res.UnitsMs, millis(time.Since(t0)))
	}
	res.calibrate(serveConns)

	var lat, submit, fetch []float64
	for i, o := range out {
		if !o.ok {
			res.fail(1, "job %d (%s %s): %s", i, o.spec.Type, o.spec.Kernel, o.body)
			continue
		}
		lat = append(lat, millis(o.latency))
		submit = append(submit, millis(o.submit))
		fetch = append(fetch, millis(o.fetch))
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job succeeded")
	}
	s.checkSweeps(res, out)
	s.checkExecutes(res, out)
	if cfg.trace {
		layers, err := s.layers(out)
		if err != nil {
			return nil, err
		}
		latTail, _ := tail(lat)
		layers["client.latency_tail_ms"] = latTail
		layers["http.submit_p50_ms"] = median(submit)
		layers["http.result_p50_ms"] = median(fetch)
		res.Layers = layers
	}
	return res, nil
}

// block runs jobs lo…hi-1 over serveConns connections, each taking the
// next job as soon as its last one is done.
func (s *serveSession) block(out []served, lo, hi int) {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < hi; i = int(next.Add(1)) - 1 {
				out[i] = s.do(s.specs[i], s.keep[i])
			}
		}()
	}
	wg.Wait()
}

// do runs one job the way a client would: submit, follow its progress
// stream to the end, fetch the result. The result body is returned only
// when keep is set.
func (s *serveSession) do(spec server.Spec, keep bool) served {
	o := served{spec: spec}
	t0 := time.Now()
	body, _ := json.Marshal(spec)
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.body = []byte(err.Error())
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.submit = time.Since(t0)
	var rec server.Record
	if err != nil || resp.StatusCode != http.StatusAccepted || json.Unmarshal(data, &rec) != nil {
		o.body = append([]byte(fmt.Sprintf("submit %d: ", resp.StatusCode)), data...)
		return o
	}
	o.id = rec.ID
	if err := s.get("/v1/jobs/"+rec.ID+"/stream", io.Discard); err != nil {
		o.body = []byte(err.Error())
		return o
	}
	var result bytes.Buffer
	var w io.Writer = io.Discard
	if keep {
		w = &result
	}
	t1 := time.Now()
	err = s.get("/v1/jobs/"+rec.ID+"/result", w)
	o.fetch = time.Since(t1)
	if err != nil {
		o.body = []byte(err.Error())
		return o
	}
	o.ok = true
	o.latency = time.Since(t0)
	if keep {
		o.body = result.Bytes()
	}
	return o
}

// get fetches one path into w and fails on any non-2xx status.
func (s *serveSession) get(path string, w io.Writer) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// checkSweeps holds every served sweep table to Suite.RunFigure over
// the same sizes with the CLI's -quick knobs.
func (s *serveSession) checkSweeps(res *result, out []served) {
	want := map[string]string{}
	for _, o := range out {
		if !o.ok || o.spec.Type != "sweep" {
			continue
		}
		key := fmt.Sprint(o.spec.Sizes)
		ref, ok := want[key]
		if !ok {
			suite := bench.NewSuite()
			suite.MaxRunLinear, suite.MaxRunCubic, suite.Reps = 1<<11, 32, 1
			text, err := suite.RunFigure(o.spec.Figure, o.spec.Sizes)
			if err != nil {
				res.fail(1, "reference sweep %v: %v", o.spec.Sizes, err)
				continue
			}
			ref, want[key] = text, text
		}
		if string(o.body) != ref {
			res.fail(1, "sweep job %s %v differs from Suite.RunFigure", o.id, o.spec.Sizes)
		}
	}
}

// checkExecutes re-runs the sampled execute jobs on the library path —
// core.Runtime.Compile and Kernel.Call with the inputs ngend generates —
// and requires the served body to match it exactly.
func (s *serveSession) checkExecutes(res *result, out []served) {
	for _, o := range out {
		if !o.ok || o.spec.Type != "execute" || o.body == nil {
			continue
		}
		want, err := libraryExec(o.spec)
		if err != nil {
			res.fail(1, "library execute %s n=%d: %v", o.spec.Kernel, o.spec.N, err)
			continue
		}
		var got server.ExecResult
		if err := json.Unmarshal(o.body, &got); err != nil || !reflect.DeepEqual(got, want) {
			res.fail(1, "execute job %s (%s n=%d) differs from the library path", o.id, o.spec.Kernel, o.spec.N)
		}
	}
}

// libraryExec computes an execute job's result without the server: the
// same deterministic inputs (bench's generator seeds), the mutated
// buffer as float32 bit patterns, the return value encoded bitwise.
func libraryExec(spec server.Spec) (server.ExecResult, error) {
	rt := core.DefaultRuntime()
	fs, n := rt.Arch.Features, spec.N
	var (
		k    *dsl.Kernel
		err  error
		args []any
		out  []float32
	)
	switch spec.Kernel {
	case "saxpy":
		a, b := randSlice(n, 1), randSlice(n, 2)
		k, args, out = kernels.StagedSaxpy(fs), []any{a, b, float32(2.5), n}, a
	case "mmm_blocked":
		a, b, c := randSlice(n*n, 3), randSlice(n*n, 4), make([]float32, n*n)
		k, args, out = kernels.StagedMMM(fs), []any{a, b, c, n}, c
	case "dot32":
		k, err = kernels.StagedDot(32, fs)
		args = []any{randSlice(n, 7), randSlice(n, 8), n}
	default:
		err = fmt.Errorf("no library recipe for %q", spec.Kernel)
	}
	if err != nil {
		return server.ExecResult{}, err
	}
	kn, err := rt.Compile(k)
	if err != nil {
		return server.ExecResult{}, err
	}
	v, err := kn.Call(args...)
	if err != nil {
		return server.ExecResult{}, err
	}
	r := server.ExecResult{Kernel: spec.Kernel, Machine: rt.Arch.Name, N: n,
		Result: renderValue(v), VMOps: rt.Machine.Counts.Total()}
	for _, x := range out {
		r.Output = append(r.Output, fmt.Sprintf("%08x", math.Float32bits(x)))
	}
	return r, nil
}

// renderValue encodes a kernel's scalar return bitwise, as ngend does.
func renderValue(v vm.Value) string {
	switch v.Kind {
	case ir.KindVoid:
		return "void"
	case ir.KindF32:
		return fmt.Sprintf("f32:%08x", math.Float32bits(float32(v.F)))
	case ir.KindF64:
		return fmt.Sprintf("f64:%016x", math.Float64bits(v.F))
	case ir.KindBool:
		return fmt.Sprintf("bool:%v", v.B)
	case ir.KindU8, ir.KindU16, ir.KindU32, ir.KindU64:
		return fmt.Sprintf("%s:%x", ir.Type{Kind: v.Kind}, v.U)
	default:
		return fmt.Sprintf("%s:%d", ir.Type{Kind: v.Kind}, v.I)
	}
}

// layers derives the serving layers from the timed run itself: the job
// records' timestamps, /metrics, and the bytes ngend left on disk.
func (s *serveSession) layers(out []served) (map[string]float64, error) {
	var data bytes.Buffer
	if err := s.get("/v1/jobs", &data); err != nil {
		return nil, err
	}
	var recs []server.Record
	if err := json.Unmarshal(data.Bytes(), &recs); err != nil {
		return nil, fmt.Errorf("job list: %w", err)
	}
	var wait, service []float64
	byType := map[string][]float64{}
	for _, r := range recs {
		if r.Cached || r.CoalescedWith != "" || r.StartedNS == 0 {
			continue // answered without a worker
		}
		wait = append(wait, float64(r.StartedNS-r.CreatedNS)/1e6)
		sv := float64(r.FinishedNS-r.StartedNS) / 1e6
		service = append(service, sv)
		byType[r.Spec.Type] = append(byType[r.Spec.Type], sv)
	}
	if len(wait) == 0 {
		return nil, fmt.Errorf("no job ran on a worker")
	}
	data.Reset()
	if err := s.get("/metrics", &data); err != nil {
		return nil, err
	}
	var snap struct{ Gauges map[string]int64 }
	if err := json.Unmarshal(data.Bytes(), &snap); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	g := snap.Gauges
	hits, misses := g["server.resultcache.hits"], g["server.resultcache.misses"]
	waitTail, _ := tail(wait)
	serviceTail, _ := tail(service)
	layers := map[string]float64{
		"server.queue_wait_p50_ms":      median(wait),
		"server.queue_wait_tail_ms":     waitTail,
		"server.service_p50_ms":         median(service),
		"server.service_tail_ms":        serviceTail,
		"server.resultcache.hit_ratio":  float64(hits) / float64(max(hits+misses, 1)),
		"server.coalesce.ratio":         float64(g["server.coalesce.followers"]) / float64(len(out)),
		"server.rejected":               float64(g["server.jobs.rejected"]),
		"plan.probes":                   float64(g["server.plan.probes"]),
		"plan.mispredicts":              float64(g["server.plan.mispredict"]),
		"server.store.bytes":            float64(dirBytes(filepath.Join(s.dir, "store"))),
		"server.resultcache.disk_bytes": float64(dirBytes(filepath.Join(s.dir, "cache", "results"))),
	}
	for _, t := range []string{"execute", "stage", "sweep"} {
		if len(byType[t]) > 0 {
			layers["server."+t+".service_p50_ms"] = median(byType[t])
		}
	}
	return layers, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
