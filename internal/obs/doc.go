// Package obs is the observability layer of the NGen reproduction: a
// lightweight, allocation-conscious tracing and metrics substrate that
// every stage of the runtime pipeline reports into.
//
// The package has two halves:
//
//   - Tracer/Span: hierarchical wall-clock spans on the monotonic clock.
//     Each runtime stage — system inspection, staging, C unparsing,
//     kernelc lowering, toolchain linking, and every Kernel.Call — opens
//     a span carrying attributes (kernel name, graph hash,
//     microarchitecture, cache hit/miss). A nil *Tracer (and a nil
//     *Span) is a fully valid disabled instance: every method is a
//     no-op that performs zero allocations, so instrumented hot paths
//     need no flag checks and cost nothing when observability is off.
//
//   - Registry: typed counters, gauges and power-of-two-bucket
//     histograms that absorb the pipeline's previously ad-hoc counters
//     (compile-cache hits and misses, dynamic vm op counts, sweep-worker
//     utilization, interpreter frame-pool recycling) behind one
//     interface with a deterministic, expvar-style JSON snapshot. A nil
//     *Registry is likewise a disabled no-op.
//
// Three exporters turn a recorded trace into operator-facing artifacts:
// an indented human-readable tree (WriteTree), JSON lines (WriteJSONL),
// and the Chrome trace_event format (WriteChromeTrace) loadable in
// about://tracing or https://ui.perfetto.dev. Totals aggregates span
// durations and self-times (duration minus the union of the children's
// intervals) by name for "where did the milliseconds go" tables, and
// Skeleton renders the timing-free structure of the tree so tests can
// assert that traces are deterministic across sweep worker counts.
//
// See docs/OBSERVABILITY.md for the operator runbook and the metric
// name catalogue, and ARCHITECTURE.md for the span around each pipeline
// stage.
package obs
