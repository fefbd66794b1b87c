package main

import "fmt"

// metric is one entry of the benchmark's metric catalogue. BENCHMARK.json
// at the repository root records the same names, units, directions and
// bounds; TestBenchmarkJSONMatchesCatalogue holds the two together.
type metric struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric a per-layer metric should move,
	// and Workloads the workloads that report it; every other workload
	// reports it as 0.
	Moves     string
	Workloads []string
}

// endToEnd is what a user of ngen, the library or ngend sees. A "unit"
// is one timed piece of work: a figure sweep (mmm, dot), one pass of
// the call plan on the static and the planner runtime (kernels), or one
// block of 100 served jobs (serve). setup_s and ref_wall_ms are at the
// reference speed of calib.go.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ref_wall_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

var (
	allWorkloads = []string{"mmm", "dot", "kernels", "serve"}
	figWorkloads = []string{"mmm", "dot"}
	kernWorkload = []string{"kernels"}
	srvWorkload  = []string{"serve"}
)

// perLayer lists the per-layer metrics in report order.
func perLayer() []metric {
	ms := []metric{
		{"xmlspec.index_s", "s", "lower", 0, "setup_s", allWorkloads},
		// The end-to-end times before scaling, and the calibration
		// loop's median time that scaled them.
		{"raw.setup_s", "s", "lower", 0, "setup_s", allWorkloads},
		{"raw.wall_ms", "ms", "lower", 0, "ref_wall_ms", allWorkloads},
		{"calib.loop_ms", "ms", "lower", 0, "ref_wall_ms", allWorkloads},

		{"core.compile_s", "s", "lower", 0, "ref_wall_ms", figWorkloads},
		{"hotspot.load_s", "s", "lower", 0, "ref_wall_ms", figWorkloads},
		{"core.call_s", "s", "lower", 0, "ref_wall_ms", figWorkloads},
		{"hotspot.invoke_s", "s", "lower", 0, "ref_wall_ms", figWorkloads},
		{"machine.estimate_s", "s", "lower", 0, "ref_wall_ms", figWorkloads},
		{"bench.self_s", "s", "lower", 0, "ref_wall_ms", figWorkloads},
		{"vm.ops_staged", "count", "lower", 0, "ref_wall_ms", figWorkloads},
		{"vm.ops_baseline", "count", "lower", 0, "ref_wall_ms", figWorkloads},
		{"layer_overhead_ratio", "ratio", "lower", 0, "ref_wall_ms", figWorkloads},

		{"backend.native.build_s", "s", "lower", 0, "setup_s", kernWorkload},
		{"irverify.verify_ms", "ms", "lower", 0, "ref_wall_ms", kernWorkload},
		{"cgen.emit_ms", "ms", "lower", 0, "ref_wall_ms", kernWorkload},
		{"kernelc.lower_ms", "ms", "lower", 0, "ref_wall_ms", kernWorkload},
		{"core.compile_ms", "ms", "lower", 0, "ref_wall_ms", kernWorkload},
		{"leg.static_ms", "ms", "lower", 0, "ref_wall_ms", kernWorkload},
		{"leg.auto_ms", "ms", "lower", 0, "ref_wall_ms", kernWorkload},
	}
	for _, c := range kernelCells {
		for _, n := range c.sizes {
			for _, st := range strategies {
				ms = append(ms, metric{callMetric(c.name, n, st.name), "ns", "lower", 0, "ref_wall_ms", kernWorkload})
			}
		}
	}
	return append(ms,
		metric{"plan.probes", "count", "lower", 0, "ref_wall_ms", []string{"kernels", "serve"}},
		metric{"plan.decisions", "count", "higher", 0, "ref_wall_ms", kernWorkload},
		metric{"plan.mispredicts", "count", "lower", 0, "ref_wall_ms", []string{"kernels", "serve"}},
		metric{"plan.best_ratio", "ratio", "higher", 0, "ref_wall_ms", kernWorkload},

		metric{"server.queue_wait_p50_ms", "ms", "lower", 0, "ref_wall_ms", srvWorkload},
		metric{"server.queue_wait_tail_ms", "ms", "lower", 0, "ref_wall_ms", srvWorkload},
		metric{"server.service_p50_ms", "ms", "lower", 0, "ref_wall_ms", srvWorkload},
		metric{"server.service_tail_ms", "ms", "lower", 0, "ref_wall_ms", srvWorkload},
		metric{"server.execute.service_p50_ms", "ms", "lower", 0, "ref_wall_ms", srvWorkload},
		metric{"server.stage.service_p50_ms", "ms", "lower", 0, "ref_wall_ms", srvWorkload},
		metric{"server.sweep.service_p50_ms", "ms", "lower", 0, "ref_wall_ms", srvWorkload},
		metric{"http.submit_p50_ms", "ms", "lower", 0, "ref_wall_ms", srvWorkload},
		metric{"http.result_p50_ms", "ms", "lower", 0, "ref_wall_ms", srvWorkload},
		metric{"server.resultcache.hit_ratio", "ratio", "higher", 0, "ref_wall_ms", srvWorkload},
		metric{"server.coalesce.ratio", "ratio", "higher", 0, "ref_wall_ms", srvWorkload},
		metric{"server.rejected", "count", "lower", 0, "ref_wall_ms", srvWorkload},
		metric{"server.store.bytes", "bytes", "lower", 0, "ref_wall_ms", srvWorkload},
		metric{"server.resultcache.disk_bytes", "bytes", "lower", 0, "ref_wall_ms", srvWorkload},
		metric{"client.latency_tail_ms", "ms", "lower", 0, "ref_wall_ms", srvWorkload},
	)
}

// callMetric names the per-call time of one kernel × size × strategy.
func callMetric(kernel string, n int, strategy string) string {
	return fmt.Sprintf("core.call_ns.%s.%d.%s", kernel, n, strategy)
}
