package core

import (
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/obs"
)

// stageBadStore stages a kernel whose graph is deliberately ill-formed:
// a vector store emitted with PureEffect through an immutable parameter.
// The dsl bindings cannot produce this (they attach write effects and
// require dsl.Mutable), so the raw graph is edited directly — exactly
// the kind of hand-staged mistake irverify exists to catch.
func stageBadStore(rt *Runtime) *dsl.Kernel {
	k := rt.NewKernel("bad_store")
	k.ParamF32Ptr()
	g := k.F.G
	v := g.Emit(&ir.Def{Op: "_mm256_setzero_ps", Typ: ir.TM256, Effect: ir.PureEffect})
	g.EmitStmt(&ir.Def{Op: "_mm256_storeu_ps", Typ: ir.TVoid,
		Args: []ir.Exp{k.F.Param(0), v}, Effect: ir.PureEffect})
	return k
}

// TestCompileRejectsIllFormedGraph: Compile must fail fast with the
// rendered diagnostics before any code generation, and count the errors.
func TestCompileRejectsIllFormedGraph(t *testing.T) {
	rt := DefaultRuntime()
	rt.Metrics = obs.NewRegistry()
	before := FullCompiles()
	_, err := rt.Compile(stageBadStore(rt))
	if err == nil {
		t.Fatal("Compile accepted an ill-formed graph")
	}
	for _, want := range []string{"failed verification", "without a write effect", "immutable"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("compile error missing %q:\n%s", want, err)
		}
	}
	if runs := FullCompiles() - before; runs != 1 {
		t.Errorf("full compiles (verifier runs) = %d, want 1", runs)
	}
	if errs := rt.Metrics.Counter("verify.errors").Load(); errs == 0 {
		t.Error("verify.errors not counted")
	}
	// A failed build must not poison the cache with a half-made artifact.
	if st := rt.CacheStats(); st.Entries != 0 {
		t.Errorf("failed compile left %d cache entries", st.Entries)
	}
}

// TestVerifyResultRidesTheCache: the verdict is computed once per
// artifact; a cache hit reuses it (no second full compile) and renders
// byte-identically.
func TestVerifyResultRidesTheCache(t *testing.T) {
	rt := DefaultRuntime()
	rt.Metrics = obs.NewRegistry()
	rt.Tracer = obs.New()
	before := FullCompiles()

	kn1, err := rt.Compile(stageSumSquares(rt))
	if err != nil {
		t.Fatal(err)
	}
	kn2, err := rt.Compile(stageSumSquares(rt))
	if err != nil {
		t.Fatal(err)
	}
	if kn1.Verify() == nil || !kn1.Verify().Ok() {
		t.Fatal("clean kernel must carry an ok verify result")
	}
	if kn1.Verify() != kn2.Verify() {
		t.Error("cache hit must reuse the stored verify result")
	}
	if a, b := kn1.Verify().Render(), kn2.Verify().Render(); a != b {
		t.Errorf("verdict renders differ across hit/miss:\n%s\n%s", a, b)
	}
	if runs := FullCompiles() - before; runs != 1 {
		t.Errorf("full compiles (verifier runs) = %d, want 1 (hit must not re-verify)", runs)
	}
	if st := rt.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats %+v, want 1 hit and 1 miss", st)
	}
	// The verifier is a traced pipeline stage on the miss only.
	skel := rt.Tracer.Skeleton(nil)
	if n := strings.Count(skel, "irverify.run"); n != 1 {
		t.Errorf("expected 1 irverify.run span (hit skips the pass stack), got %d:\n%s", n, skel)
	}
}
