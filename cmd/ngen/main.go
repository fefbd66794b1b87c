// Command ngen runs the reproduction's experiments and prints the
// paper's tables and figures as text series. Experiment ids match
// DESIGN.md's per-experiment index.
//
// Usage:
//
//	ngen platform            # Appendix A.4's TestPlatform
//	ngen table1b             # intrinsic counts per ISA
//	ngen table3              # spec versions and generator robustness
//	ngen fig6a [-quick]      # SAXPY, Java vs LMS
//	ngen fig6b [-quick]      # MMM, triple/blocked Java vs LMS
//	ngen fig7  [-quick]      # variable-precision dot products
//	ngen speedups [-quick]   # headline "up to N×" factors
//	ngen warmup              # tiered-compilation trace (interpreter → C1 → C2)
//	ngen vet [-json] [-strict]
//	                         # statically verify every registered kernel on
//	                         # every machine description (irverify pass stack);
//	                         # exits 1 if any error-severity diagnostic fires,
//	                         # and with -strict also on unwaived warnings
//	ngen conform [-seed N] [-count N] [-json] [-native-every N]
//	                         # grammar-driven conformance suite: generate
//	                         # well-typed kernels plus ill-formed mutants,
//	                         # cross-check the verifier's verdicts, and run
//	                         # accepted kernels differentially (scalar oracle
//	                         # vs vm plain/opt/parallel vs native backend);
//	                         # exits 1 on any divergence, unsound accept, or
//	                         # missed/misclassified defect (docs/VERIFIER.md)
//	ngen plan [kernel...]    # calibrate the adaptive execution planner on
//	                         # registry kernels (default saxpy, mmm, dot8)
//	                         # and print the predicted-vs-measured strategy
//	                         # tables; -cachedir persists plans (a second
//	                         # run reports `plan probes: 0`), -check exits 1
//	                         # unless every plan calibrates on its measured
//	                         # argmin (docs/PLANNER.md)
//	ngen all   [-quick]      # everything
//	ngen stats [experiment]  # run an experiment (default: -quick fig6a), then
//	                         # print per-stage time totals, compile-cache and
//	                         # frame-pool statistics, and top op counters
//
// Observability (see docs/OBSERVABILITY.md):
//
//	-trace out.trace         # write a Chrome trace_event file of the run
//	                         # (load in about://tracing or ui.perfetto.dev)
//	-metrics                 # print the metrics registry as JSON after the run:
//	                         # live counters plus the runtime gauges of
//	                         # core.Runtime.PublishMetrics (ngend serves the
//	                         # same rows under server.)
//
// Execution tiers (see docs/PARALLEL.md and docs/BACKENDS.md):
//
//	-par N                   # lane budget for the parallel loop tier
//	                         # (default NumCPU; ≤1 forces every loop serial).
//	                         # Results are byte-identical at any setting.
//	-backend native          # compile kernels to Go plugins and run them
//	                         # natively; unavailable hosts fall back to the
//	                         # vm interpreter with a notice, results identical
//	-auto                    # adaptive execution planner, the one switch
//	                         # for it: per kernel × size bucket, predict,
//	                         # calibrate and auto-select the fastest
//	                         # (backend, lanes) among kernels with a choice;
//	                         # figure output stays byte-identical
//	                         # (docs/PLANNER.md)
//	-cachedir dir            # persistent compile cache: cold runs fill it,
//	                         # warm runs perform zero graph compiles and
//	                         # print a cachepersist summary line
//
// Without these flags experiment output is byte-identical to an
// uninstrumented build: the tracer and registry stay nil and every
// instrumentation point is an allocation-free no-op.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	_ "repro/internal/backend/native" // registers the native execution backend
	"repro/internal/bench"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/hotspot"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/xmlspec"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ngen [-quick] [-par N] [-auto] [-backend name] [-cachedir dir] [-trace file] [-metrics] {platform|warmup|cache|slp|vet [-json] [-strict]|conform [-seed N] [-count N] [-json]|plan [-cachedir dir] [-check] [kernel...]|table1b|table3|fig6a|fig6b|fig7|speedups|all|stats [experiment]}")
		flag.PrintDefaults()
	}
	quick := flag.Bool("quick", false, "smaller size sweeps (fast smoke run)")
	backendName := flag.String("backend", "", "execution backend: vm (interpreter, default) or native (plugin-compiled Go; falls back to vm with a notice when unavailable or unknown)")
	auto := flag.Bool("auto", false, "adaptive execution planner: calibrate and auto-select the fastest backend/lanes per kernel × size (results byte-identical; see docs/PLANNER.md)")
	workers := flag.Int("j", runtime.NumCPU(), "sweep worker goroutines (size points run in parallel)")
	par := flag.Int("par", runtime.NumCPU(), "parallel loop lanes per kernel execution (≤1 keeps every loop on the serial driver)")
	cachedir := flag.String("cachedir", "", "persistent compile cache directory (cold runs fill it; warm runs skip graph compiles)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON file of the run to this file")
	metrics := flag.Bool("metrics", false, "print the metrics registry as JSON after the run")
	jsonOut := flag.Bool("json", false, "vet: emit diagnostics as JSON lines instead of the text report")
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		flag.Usage()
		os.Exit(2)
	}
	if cmd == "vet" {
		// vet needs no benchmark suite, runtime or observability: it is
		// pure static analysis over freshly staged graphs. Subcommand
		// flags (-json, -strict) are parsed from the remaining args
		// (global flag parsing stops at `vet`); a global -json before
		// the subcommand is honoured too.
		if err := vetCmd(flag.Args()[1:], *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "ngen:", err)
			os.Exit(1)
		}
		return
	}
	if cmd == "conform" {
		// conform generates its own kernels and runtimes; like vet it
		// bypasses the benchmark suite. Flags follow the subcommand.
		if err := conformCmd(flag.Args()[1:], *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "ngen:", err)
			os.Exit(1)
		}
		return
	}
	if cmd == "plan" {
		// plan builds its own planned runtime (eager native builds);
		// flags follow the subcommand.
		if err := planCmd(flag.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "ngen:", err)
			os.Exit(1)
		}
		return
	}
	statsCmd := cmd == "stats"
	target := cmd
	if statsCmd {
		target = flag.Arg(1)
		if target == "" {
			// Bare `ngen stats`: profile a quick SAXPY sweep.
			target = "fig6a"
			*quick = true
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ngen:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ngen:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// Observability is opt-in: without these flags the tracer and
	// registry stay nil, instrumentation no-ops, and experiment output
	// is byte-identical to an unobserved run.
	var tr *obs.Tracer
	var reg *obs.Registry
	if *traceFile != "" || *metrics || statsCmd {
		tr = obs.New()
		reg = obs.NewRegistry()
	}
	inspect := tr.Start("ngen.inspect")
	s := bench.NewSuite()
	inspect.End()
	s.Attach(tr, reg)
	s.Workers = *workers
	s.RT.Machine.Workers = *par
	if *cachedir != "" {
		d, derr := core.OpenDiskCache(*cachedir, 0)
		if derr != nil {
			fmt.Fprintln(os.Stderr, "ngen:", derr)
			os.Exit(1)
		}
		s.RT.Disk = d
	}
	if *backendName != "" && *backendName != "vm" {
		// Backend selection degrades gracefully: an unavailable backend
		// (no toolchain, unsupported OS, race build) prints why and the
		// run proceeds on the interpreter with identical results.
		if berr := s.RT.UseBackend(*backendName); berr != nil {
			fmt.Fprintf(os.Stderr, "ngen: backend %q unavailable, running on vm: %v\n",
				*backendName, berr)
		} else {
			fmt.Printf("backend: %s\n", *backendName)
		}
	}
	if *auto {
		s.RT.EnableAutoPlan()
		fmt.Println("planner: auto (backend/lanes per kernel × size)")
	}
	if *quick {
		s.MaxRunLinear = 1 << 11
		s.MaxRunCubic = 32
		s.Reps = 1
	}

	// The root span parents the suite runtime's spans and every sweep,
	// so its self-time is only what no stage accounts for.
	root := tr.Start("ngen." + target)
	s.RT.Span = root
	err := run(s, target, *quick)
	s.RT.Span = nil
	root.End()

	if err == nil && s.RT.Planner != nil {
		// The planner summary mirrors the cachepersist line: warm runs
		// (plans loaded from the cachedir) must report zero probes.
		ps := s.RT.Planner.Stats()
		fmt.Printf("plan: %d plans (%d calibrated), %d decisions, %d probes, %d mispredicts, %d loaded, %d persisted\n",
			len(s.RT.Planner.Snapshot()), ps["calibrated"], ps["decisions"],
			ps["probes"], ps["mispredict"], ps["loads"], ps["persists"])
	}
	if err == nil && s.RT.Disk != nil {
		// The cachepersist CI gate greps this line: a warm cache must
		// report zero graph compiles.
		ds := s.RT.Disk.Stats()
		fmt.Printf("cachepersist: %d disk hits, %d misses, %d stores, %d corrupt, %d evicted; graph compiles: %d\n",
			ds.Hits, ds.Misses, ds.Stores, ds.Corrupt, ds.Evictions, core.FullCompiles())
	}

	if err == nil && *traceFile != "" {
		if werr := writeTrace(tr, *traceFile); werr != nil {
			err = werr
		}
	}
	if err == nil && statsCmd {
		printStats(s, tr, reg)
	}
	if err == nil && *metrics {
		s.PublishMetrics()
		if werr := reg.WriteJSON(os.Stdout); werr != nil {
			err = werr
		}
	}
	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "ngen:", merr)
			os.Exit(1)
		}
		runtime.GC()
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fmt.Fprintln(os.Stderr, "ngen:", merr)
			os.Exit(1)
		}
		f.Close()
	}
	if err != nil {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		fmt.Fprintln(os.Stderr, "ngen:", err)
		os.Exit(1)
	}
}

// writeTrace dumps the recorded spans in Chrome trace_event format.
func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printStats renders the operator report: where the time went
// (per-stage totals aggregated over the trace), cache and frame-pool
// effectiveness, and the heaviest dynamic op counters.
func printStats(s *bench.Suite, tr *obs.Tracer, reg *obs.Registry) {
	s.PublishMetrics()
	snap := reg.Snapshot()

	fmt.Println()
	fmt.Println("ngen stats")
	fmt.Println("==========")

	// Collapse indexed spans (point#0, point#1, …) into one row each.
	agg := map[string]*obs.StageTotal{}
	var order []string
	for _, st := range tr.Totals() {
		name := st.Name
		if i := strings.IndexByte(name, '#'); i >= 0 {
			name = name[:i]
		}
		a, ok := agg[name]
		if !ok {
			a = &obs.StageTotal{Name: name}
			agg[name] = a
			order = append(order, name)
		}
		a.Count += st.Count
		a.Total += st.Total
		a.Self += st.Self
	}
	sort.SliceStable(order, func(i, j int) bool {
		return agg[order[i]].Total > agg[order[j]].Total
	})
	// Self-time is what no child span explains; a stage whose self-time
	// exceeds a fifth of the wall is flagged as the next thing to split.
	wall := tr.Wall()
	var flagged []string
	fmt.Println("Per-stage totals (aggregated over the trace):")
	fmt.Printf("  %-28s %8s %14s %14s %14s\n", "stage", "count", "total", "self", "mean")
	for _, name := range order {
		st := agg[name]
		mark := ""
		if st.Self*5 > wall {
			mark = " *"
			flagged = append(flagged, name)
		}
		fmt.Printf("  %-28s %8d %14s %14s %14s%s\n", st.Name, st.Count,
			st.Total.Round(time.Microsecond), st.Self.Round(time.Microsecond),
			(st.Total / time.Duration(st.Count)).Round(time.Microsecond), mark)
	}
	fmt.Printf("  trace coverage: %.1f%% of %s wall\n",
		100*tr.Coverage(), wall.Round(time.Millisecond))
	if len(flagged) > 0 {
		fmt.Printf("  * self-time above 20%% of wall: %s\n", strings.Join(flagged, ", "))
	}

	cs := s.RT.CacheStats()
	fmt.Printf("Compile cache:  %d hits, %d misses, %d entries, %d deduped in flight (%d full compiles)\n",
		cs.Hits, cs.Misses, cs.Entries, cs.Deduped, core.FullCompiles())
	if s.RT.Disk != nil {
		ds := s.RT.Disk.Stats()
		fmt.Printf("Disk cache:     %d hits, %d misses, %d stores, %d corrupt, %d evicted (%s)\n",
			ds.Hits, ds.Misses, ds.Stores, ds.Corrupt, ds.Evictions, s.RT.Disk.Dir())
	}
	if eligible, runs, fallbacks, chunks, steals := kernelc.ParStats(); eligible > 0 {
		fmt.Printf("Parallel tier:  %d eligible loops, %d sharded runs, %d serial fallbacks, %d chunks (%d stolen)\n",
			eligible, runs, fallbacks, chunks, steals)
	}
	gets, news := kernelc.PoolStats()
	hitRate := 0.0
	if gets > 0 {
		hitRate = 100 * float64(gets-news) / float64(gets)
	}
	fmt.Printf("Frame pool:     %d checkouts, %d fresh allocations (%.1f%% recycled)\n",
		gets, news, hitRate)
	if w := snap.Gauges["bench.sweep.workers"]; w > 0 {
		fmt.Printf("Sweep workers:  %d (last sweep), %d points measured\n",
			w, snap.Counters["bench.points"])
	}
	for _, leg := range []struct{ label, prefix string }{
		{"Staged memo:   ", "bench.staged.memo."},
		{"Baseline memo: ", "bench.baseline.memo."},
	} {
		hits, misses := snap.Gauges[leg.prefix+"hits"], snap.Gauges[leg.prefix+"misses"]
		counted := snap.Gauges[leg.prefix+"counted"]
		if bypassed := snap.Gauges[leg.prefix+"bypassed"]; hits+misses+bypassed > 0 {
			fmt.Printf("%s %d reused, %d counted without executing, %d executed and stored, %d executed unmemoized\n",
				leg.label, hits, counted, misses-counted, bypassed)
		}
	}

	// Heaviest dynamic ops across all sweeps and validation runs.
	type opCount struct {
		op string
		n  int64
	}
	var ops []opCount
	for name, v := range snap.Gauges {
		if op, ok := strings.CutPrefix(name, "vm.op."); ok {
			ops = append(ops, opCount{op, v})
		}
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].n != ops[j].n {
			return ops[i].n > ops[j].n
		}
		return ops[i].op < ops[j].op
	})
	if len(ops) > 12 {
		ops = ops[:12]
	}
	fmt.Println("Top dynamic op counts:")
	for _, oc := range ops {
		fmt.Printf("  %-28s %14d\n", oc.op, oc.n)
	}
}

func run(s *bench.Suite, cmd string, quick bool) error {
	switch cmd {
	case "platform":
		fmt.Println(s.RT.SystemReport())
		return nil
	case "table1b":
		return table1b()
	case "table3":
		return table3()
	case "fig6a":
		return fig6a(s, quick)
	case "fig6b":
		return fig6b(s, quick)
	case "fig7":
		return fig7(s, quick)
	case "speedups":
		return speedups(s, quick)
	case "warmup":
		return warmup()
	case "cache":
		return cacheValidate(s)
	case "slp":
		return slpReports()
	case "all":
		for _, f := range []func() error{
			func() error { fmt.Println(s.RT.SystemReport()); return nil },
			table1b, table3,
			func() error { return fig6a(s, quick) },
			func() error { return fig6b(s, quick) },
			func() error { return fig7(s, quick) },
			func() error { return speedups(s, quick) },
			warmup,
			func() error { return cacheValidate(s) },
			slpReports,
		} {
			if err := f(); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", cmd)
	}
}

func table1b() error {
	f := xmlspec.Generate(xmlspec.Latest())
	rs, errs := xmlspec.Resolve(f)
	st := xmlspec.ComputeStats(f.Version, rs, len(errs))
	fmt.Println("Table 1b — x86 SIMD intrinsics per ISA (spec data-" + f.Version + ".xml)")
	fmt.Println(st.Table1b())
	fmt.Println("Categories (Table 1a taxonomy):")
	fmt.Println(st.CategoryTable())
	return nil
}

func table3() error {
	fmt.Println("Table 3 — Intel Intrinsics Guide XML specifications")
	fmt.Printf("%-12s %-12s %8s %8s %8s\n", "Spec", "Date", "Total", "AVX-512", "Skipped")
	var failed []string // versions with resolver errors
	for _, vi := range xmlspec.Versions() {
		f := xmlspec.Generate(vi)
		rs, errs := xmlspec.Resolve(f)
		st := xmlspec.ComputeStats(vi.Version, rs, len(errs))
		avx512 := 0
		for fam, n := range st.PerFamily {
			if fam.String() == "AVX-512" {
				avx512 = n
			}
		}
		fmt.Printf("data-%-7s %-12s %8d %8d %8d\n",
			vi.Version+".xml", vi.Date, st.Total, avx512, st.Skipped)
		if st.Skipped != 0 {
			failed = append(failed, "data-"+vi.Version+".xml")
		}
	}
	if len(failed) == 0 {
		fmt.Println("(every version is generated and resolved with 0 resolver errors)")
	} else {
		fmt.Printf("(resolver errors in %s)\n", strings.Join(failed, ", "))
	}
	return nil
}

// sizes delegates to the shared figure axis (bench.FigureSizes), the
// same points ngend sweep jobs measure.
func sizes(figure string, quick bool) []int {
	out, err := bench.FigureSizes(figure, quick)
	if err != nil {
		panic(err) // only called with known figures
	}
	return out
}

// runFigure prints one figure sweep through the shared RunFigure path,
// so CLI and ngend output stay byte-identical by construction.
func runFigure(s *bench.Suite, figure string, quick bool) error {
	out, err := s.RunFigure(figure, sizes(figure, quick))
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func fig6a(s *bench.Suite, quick bool) error { return runFigure(s, "fig6a", quick) }

func fig6b(s *bench.Suite, quick bool) error { return runFigure(s, "fig6b", quick) }

func fig7(s *bench.Suite, quick bool) error { return runFigure(s, "fig7", quick) }

// warmup traces a method through the tiered JVM: interpreter → C1 → C2,
// the "full-tiered compilation" the paper observes with
// -XX:UnlockDiagnosticVMOptions (Section 3.4) and excludes from its
// measurements. The compile threshold is the paper's
// -XX:CompileThreshold=100.
func warmup() error {
	jvm := hotspot.NewVM(isa.Haswell)
	jvm.CompileThreshold = 100
	m, err := jvm.Load(kernels.JavaSaxpy(isa.Haswell.Features))
	if err != nil {
		return err
	}
	const n = 1024
	a := vm.PinF32(make([]float32, n))
	b := vm.PinF32(make([]float32, n))
	args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0),
		vm.F32Value(1.5), vm.IntValue(n)}

	fmt.Println("JIT warm-up — JSaxpy through the tiered VM (threshold 100)")
	fmt.Printf("%-12s %-12s %14s\n", "invocation", "tier", "flops/cycle")
	prev := hotspot.Tier(-1)
	for i := 0; i < 130; i++ {
		tier := m.Tier()
		jvm.Machine.Counts.Reset()
		if _, err := m.Invoke(args...); err != nil {
			return err
		}
		if tier != prev || i == 129 {
			rep := m.Estimate(tier, jvm.Machine.Counts, 8*n)
			fmt.Printf("%-12d %-12s %14.3f\n", i+1, tier,
				machine.FlopsPerCycle(kernels.SaxpyFlops(n), rep))
			prev = tier
		}
	}
	fmt.Println("(the benchmarks measure C2 steady state, as the paper does)")
	return nil
}

// cacheValidate cross-checks the analytical memory model against the
// set-associative cache simulator on a warm-cache SAXPY run — the
// model-validation appendix of EXPERIMENTS.md.
func cacheValidate(s *bench.Suite) error {
	kn, err := s.RT.Compile(kernels.StagedSaxpy(s.RT.Arch.Features))
	if err != nil {
		return err
	}
	hier := cachesim.NewHaswellHierarchy()
	s.RT.Machine.Cache = hier
	defer func() { s.RT.Machine.Cache = nil }()

	fmt.Println("Cache-model validation — SAXPY, warm cache, simulated hierarchy")
	fmt.Printf("%-10s %-10s %-12s %-12s %s\n", "n", "footprint", "model-level", "sim-level", "per-level bytes")
	for _, n := range []int{1 << 10, 1 << 13, 1 << 15, 1 << 17, 1 << 19, 1 << 21} {
		a := vm.PinF32(make([]float32, n))
		b := vm.PinF32(make([]float32, n))
		args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0),
			vm.F32Value(1.5), vm.IntValue(n)}
		hier.Reset()
		if _, err := kn.CallValues(args...); err != nil {
			return err
		}
		hier.ResetCounters()
		if _, err := kn.CallValues(args...); err != nil {
			return err
		}
		bytes := hier.BytesFrom()
		fmt.Printf("%-10d %-10s %-12s %-12s L1:%dK L2:%dK L3:%dK Mem:%dK\n",
			n, fmtKB(8*n), s.RT.Arch.CacheLevel(8*n), hier.DominantLevel(0.25),
			bytes["L1"]>>10, bytes["L2"]>>10, bytes["L3"]>>10, bytes["Mem"]>>10)
	}
	return nil
}

// slpReports prints what the simulated C2's auto-vectorizer did to every
// Java baseline — the reproduction's analog of the paper's assembly
// diagnostics (-XX:UnlockDiagnosticVMOptions -XX:CompileCommand=print,
// Section 3.4).
func slpReports() error {
	jvm := hotspot.NewVM(isa.Haswell)
	fs := isa.Haswell.Features
	methods := []struct {
		name string
		f    func() (*hotspot.Method, error)
	}{
		{"JSaxpy", func() (*hotspot.Method, error) { return jvm.Load(kernels.JavaSaxpy(fs)) }},
		{"JMMM (triple loop)", func() (*hotspot.Method, error) { return jvm.Load(kernels.JavaMMMTriple(fs)) }},
		{"JMMM (blocked)", func() (*hotspot.Method, error) { return jvm.Load(kernels.JavaMMMBlocked(fs)) }},
	}
	for _, bits := range []int{32, 16, 8, 4} {
		bits := bits
		methods = append(methods, struct {
			name string
			f    func() (*hotspot.Method, error)
		}{fmt.Sprintf("JDot %d-bit", bits), func() (*hotspot.Method, error) {
			f, err := kernels.JavaDot(bits, fs)
			if err != nil {
				return nil, err
			}
			return jvm.Load(f)
		}})
	}
	fmt.Println("C2 auto-vectorization diagnostics (SLP)")
	for _, mm := range methods {
		m, err := mm.f()
		if err != nil {
			return err
		}
		status := "scalar"
		if m.SLP.Vectorized() {
			status = fmt.Sprintf("vectorized %d/%d loops with SSE (%d-wide)",
				m.SLP.LoopsVectorized, m.SLP.LoopsSeen, hotspot.SLPWidth)
		}
		fmt.Printf("  %-22s %s\n", mm.name+":", status)
		for _, r := range m.SLP.Rejections {
			fmt.Printf("  %-22s   rejected: %s\n", "", r)
		}
	}
	return nil
}

func fmtKB(b int) string {
	if b >= 1<<20 {
		return fmt.Sprintf("%dMB", b>>20)
	}
	return fmt.Sprintf("%dKB", b>>10)
}

func speedups(s *bench.Suite, quick bool) error {
	fmt.Println("Headline speedups (max over sizes, LMS vs Java)")
	fmt.Printf("%-28s %10s %10s\n", "Experiment", "Paper", "Measured")

	mm, err := s.Fig6b(sizes("fig6b", quick))
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %10s %9.1fx\n", "MMM vs blocked Java", "5x", bench.Speedup(mm[1], mm[2]))
	fmt.Printf("%-28s %10s %9.1fx\n", "MMM vs triple-loop Java", "7.8x", bench.Speedup(mm[0], mm[2]))

	dots, err := s.Fig7(sizes("fig7", quick))
	if err != nil {
		return err
	}
	paper := map[int]string{32: "5.4x", 16: "4.8x", 8: "9x", 4: "40x"}
	for i, bits := range []int{32, 16, 8, 4} {
		fmt.Printf("dot product %-16s %10s %9.1fx\n",
			fmt.Sprintf("%d-bit", bits), paper[bits], bench.Speedup(dots[i], dots[i+4]))
	}
	return nil
}
