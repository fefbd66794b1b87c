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
// not depend on the data they process. Each tier's program proves its
// body count-invariant (kernelc.Program.Proof, as written and
// SLP-rewritten), and Method.CountKey names an admitted execution by method, tier and
// kernelc.CountKey's argument shapes, so the bench harness evaluates
// each distinct baseline key once per suite — counted without executing
// by Method.CountAt whenever kernelc's count-only evaluator can (see
// internal/kernelc).
package hotspot
