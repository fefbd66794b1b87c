// Command ngenbench is the repository's benchmark. It runs one workload
// end to end, checks the program's outputs, and prints every metric as
// "name value unit" followed, on the last line, by a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, with -trace 1 the
// per-layer ones (see metrics.go and README.md). End-to-end times are
// scaled to a fixed reference speed of the host (see calib.go). Run it
// from the repository root through run.sh, which builds it from source:
//
//	bash cmd/ngenbench/run.sh --workload mmm --seed 1 --seconds 20 --trace 0
//
// The command is a parent process: it starts the workload process
// several times to time set-up (process start to ready), and lets the
// last one measure, so set-up cost, peak RSS and GC state belong to one
// workload alone. It exits 1 when any output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	_ "repro/internal/backend/native" // registers the native execution backend
)

// setupRuns is how many workload processes each run starts; setup_s is
// the median of their start-to-ready times, and the last one measures.
const setupRuns = 5

// runTimeout bounds one whole run, child processes included.
const runTimeout = 170 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// session is one workload set up inside the workload process.
type session interface {
	// run measures for cfg.seconds, checks the outputs and, with
	// cfg.trace, makes the layer pass.
	run(cfg config) (*result, error)
	close() error
}

// setupFunc prepares a workload and returns the timed parts of its
// set-up as per-layer metrics.
type setupFunc func(cfg config) (session, map[string]float64, error)

var workloads = map[string]setupFunc{
	"mmm":     setupFigure("fig6b"),
	"dot":     setupFigure("fig7"),
	"kernels": setupKernels,
	"serve":   setupServe,
}

// result is what the measuring workload process reports.
type result struct {
	// UnitsMs are the timed units of work, in milliseconds.
	UnitsMs []float64 `json:"units_ms"`
	// CalibMs are the calibration loop's times, taken between units.
	CalibMs   []float64          `json:"calib_ms"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// maxProblems caps how many failure descriptions a run keeps.
const maxProblems = 20

// fail records n failed attempts and why.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// message is one line of the workload process's report to its parent:
// first the ready handshake with the set-up parts, then the result.
type message struct {
	Setup  map[string]float64 `json:"setup,omitempty"`
	Result *result            `json:"result,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: mmm, dot, kernels or serve")
	seed := flag.Uint64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 20, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	child := flag.String("child", "", "run as the workload process: setup or run (used by the parent)")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: ngenbench --workload mmm|dot|kernels|serve [--seed N] [--seconds N] [--trace 0|1]")
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if *child != "" {
		if err := childMain(cfg, *child); err != nil {
			fmt.Fprintln(os.Stderr, "ngenbench:", err)
			os.Exit(1)
		}
		return
	}
	ok, err := parentMain(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ngenbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// childMain is the workload process: set up, report ready on fd 3,
// and — in run mode — measure and report the result.
func childMain(cfg config, mode string) error {
	ctl := os.NewFile(3, "ctl")
	if ctl == nil {
		return fmt.Errorf("no report pipe on fd 3")
	}
	defer ctl.Close()
	enc := json.NewEncoder(ctl)
	sess, parts, err := workloads[cfg.workload](cfg)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	if err := enc.Encode(message{Setup: parts}); err != nil {
		sess.close()
		return err
	}
	if mode == "setup" {
		return sess.close()
	}
	res, err := sess.run(cfg)
	if cerr := sess.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return enc.Encode(message{Result: res})
}

// childRun is one finished workload process as its parent saw it.
type childRun struct {
	setup  time.Duration
	parts  map[string]float64
	res    *result
	maxRSS int64 // bytes
}

// spawn starts one workload process and waits for it to exit. Its
// standard output and error go to the parent's standard error, so the
// parent's standard output carries only the report.
func spawn(ctx context.Context, cfg config, tmp, mode string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(int(cfg.seconds/time.Second)), "-trace", trace)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.ExtraFiles = []*os.File{w}
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		w.Close()
		return nil, err
	}
	w.Close()
	dec := json.NewDecoder(r)
	var ready, done message
	derr := dec.Decode(&ready)
	out := &childRun{setup: time.Since(start), parts: ready.Setup}
	if derr == nil && mode == "run" {
		derr = dec.Decode(&done)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s process: %w", mode, err)
	}
	if derr != nil {
		return nil, fmt.Errorf("%s process report: %w", mode, derr)
	}
	out.res = done.Result
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.maxRSS = ru.Maxrss * 1024 // Linux reports KiB
	}
	return out, nil
}

// parentMain runs the workload processes, prints the report and tells
// whether every output check passed.
func parentMain(cfg config) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	tmp, err := os.MkdirTemp("", "ngenbench-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)

	var setups []float64
	parts := map[string][]float64{}
	var last *childRun
	for i := 0; i < setupRuns; i++ {
		mode := "setup"
		if i == setupRuns-1 {
			mode = "run"
		}
		c, err := spawn(ctx, cfg, tmp, mode)
		if err != nil {
			return false, err
		}
		setups = append(setups, c.setup.Seconds())
		for k, v := range c.parts {
			parts[k] = append(parts[k], v)
		}
		last = c
	}
	res := last.res
	if res == nil || len(res.UnitsMs) == 0 || len(res.CalibMs) == 0 || res.Attempted < 1 {
		return false, fmt.Errorf("%s: the run timed no work", cfg.workload)
	}
	// The workload process ran the calibration loop between its units;
	// the same scale serves set-up, which ran just before them.
	scale := refNominalMs / median(res.CalibMs)
	fmt.Fprintf(os.Stderr, "ngenbench: %s: %d units timed, median %.4g ms, range %.4g–%.4g ms; calibration loop median %.4g ms over %d runs\n",
		cfg.workload, len(res.UnitsMs), median(res.UnitsMs),
		percentile(res.UnitsMs, 0), percentile(res.UnitsMs, 100), median(res.CalibMs), len(res.CalibMs))

	values := map[string]float64{}
	catalogue := endToEnd
	if cfg.trace {
		catalogue = perLayer()
		for k, v := range res.Layers {
			values[k] = v
		}
		for k, vs := range parts {
			values[k] = median(vs)
		}
		values["raw.setup_s"] = median(setups)
		values["raw.wall_ms"] = median(res.UnitsMs)
		values["calib.loop_ms"] = median(res.CalibMs)
	} else {
		values["setup_s"] = median(setups) * scale
		values["ref_wall_ms"] = median(res.UnitsMs) * scale
		values["peak_rss_mb"] = float64(last.maxRSS) / (1 << 20)
	}
	known := map[string]bool{}
	for _, m := range catalogue {
		known[m.Name] = true
	}
	for k := range values {
		if !known[k] {
			return false, fmt.Errorf("%s reported %q, which is not in the catalogue", cfg.workload, k)
		}
	}

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: res.Failed == 0 && len(res.Problems) == 0,
		Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]jsonMetric{}}
	for _, m := range catalogue {
		v := values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false, fmt.Errorf("%s: %s is not a number", cfg.workload, m.Name)
		}
		fmt.Printf("%s %s %s\n", m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
		out.Metrics[m.Name] = jsonMetric{v, m.Unit}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "ngenbench: check failed:", p)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Println(string(data))
	return out.Correct, nil
}

// another reports whether one more unit fits in a run that started at
// start and has timed units so far: always the first, and then while the
// time spent plus the mean unit's stays within budget.
func another(start time.Time, units int, budget time.Duration) bool {
	if units == 0 {
		return true
	}
	spent := time.Since(start)
	return spent+spent/time.Duration(units) <= budget
}

// millis is d in milliseconds.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
