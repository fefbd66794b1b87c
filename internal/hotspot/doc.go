// Package hotspot simulates the baseline managed runtime the paper
// compares against: a tiered JVM (interpreter → C1 → C2) whose C2
// compiler auto-vectorizes with Superword Level Parallelism (Larsen &
// Amarasinghe, PLDI 2000) — with exactly the limitations the paper
// measures (Sections 2.2, 3.4, 4.2):
//
//   - vectorization uses SSE width only (the assembly diagnostics in
//     Section 3.4 show HotSpot emitting SSE while the staged code uses
//     AVX+FMA);
//   - no FMA contraction;
//   - no reduction idioms: loop-carried accumulators stay scalar, which
//     is why the Java dot products lose Figure 7;
//   - only contiguous unit-stride float accesses pack, which is why
//     both Java MMM variants stay scalar in Figure 6b;
//   - 8/16-bit integer arithmetic promotes to 32-bit first.
//
// Count invariance. The harness only needs a baseline execution's
// dynamic op counts, never its results, and the Java methods' counts do
// not depend on the data they process. Load proves this per tier with a
// static taint analysis (countProof): values read from memory, results
// of intrinsics that read memory or machine state, and float parameters
// are tainted, taint flows through definitions, loop accumulators and
// if results, and a body is admitted only if no tainted value reaches a
// loop bound or stride, an if condition, an address or index operand,
// an integer or pointer intrinsic operand, or any operand of a gather
// or masked intrinsic. Method.CountKey then names an execution by
// method, tier, pointer shapes (element type, length, offset) and
// integer/bool argument values — float arguments and memory contents
// are left out, which the proof makes safe — so executions with equal
// keys have identical counts and identical error outcomes, and the
// bench harness runs each distinct key once per sweep worker.
package hotspot
