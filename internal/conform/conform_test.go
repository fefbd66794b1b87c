package conform

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"math"
	"math/big"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/irverify"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/vm"
)

var update = flag.Bool("update", false, "regenerate testdata/corpus.json from the seed-1 stream")

// corpusPath is the checked-in regression corpus: one representative
// recipe per (defect class, width, precision) combination seen in the
// canonical seed-1 stream, replayed on every `go test` run.
const corpusPath = "testdata/corpus.json"

func loadCorpus(t *testing.T) []Recipe {
	t.Helper()
	data, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	var recs []Recipe
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatalf("decoding corpus: %v", err)
	}
	return recs
}

// TestUpdateCorpus regenerates the corpus when -update is given; it is
// a no-op otherwise. Kept as a test (not a main) so the generator and
// the replayer can never drift apart.
func TestUpdateCorpus(t *testing.T) {
	if !*update {
		t.Skip("pass -update to regenerate the corpus")
	}
	ix := irverify.SpecIndex()
	seen := map[string]bool{}
	var out []Recipe
	for i := 0; i < 500 && len(out) < 24; i++ {
		r := newRng(caseSeed(1, i))
		rec, err := genRecipe(r, i, isa.Haswell.Features, ix)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		key := rec.Defect + "/" + rec.prefix() + rec.suffix()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, rec)
	}
	if err := os.MkdirAll(filepath.Dir(corpusPath), 0o755); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corpusPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d recipes to %s", len(out), corpusPath)
}

// TestCorpusReplay replays every checked-in recipe through the full
// verdict machinery (verifier classification + differential execution
// on the vm tiers) and requires a perfectly clean report.
func TestCorpusReplay(t *testing.T) {
	recs := loadCorpus(t)
	if len(recs) == 0 {
		t.Fatal("empty corpus")
	}
	rep, err := Replay(Options{Seed: 1, NativeEvery: -1}, recs)
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, rep)
	if got := rep.ClassesExercised(); got < 5 {
		t.Errorf("corpus exercises %d defect classes, want >= 5", got)
	}
}

// TestRunSeed1 is the in-tree acceptance gate: a bounded seed-1 run
// must come back with zero missed/misclassified/diverged/unsound
// verdicts and exercise at least five defect classes. The native leg
// is exercised sparsely to keep plugin builds rare.
func TestRunSeed1(t *testing.T) {
	count := 120
	if testing.Short() {
		count = 40
	}
	rep, err := Run(Options{Seed: 1, Count: count, NativeEvery: nativeEveryForTest()})
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, rep)
	if got := rep.ClassesExercised(); got < 5 {
		t.Errorf("run exercised %d defect classes, want >= 5", got)
	}
	var executed int
	for _, st := range rep.Stats {
		executed += st.Executed
	}
	if executed == 0 {
		t.Error("no case was executed differentially")
	}
}

// nativeEveryForTest keeps plugin builds out of -short runs.
func nativeEveryForTest() int {
	if testing.Short() {
		return -1
	}
	return 40
}

// TestBrokenVerifierIsCaught lobotomises the type pass and requires
// the suite to notice: arity/type mutants sail through the broken
// verifier, which the harness must report as missed defects. This is
// the soundness cross-check guarding against silent verifier
// regressions — if it ever passes with a disabled pass, the suite has
// stopped watching the verifier.
func TestBrokenVerifierIsCaught(t *testing.T) {
	broken := func(f *ir.Func, arch *isa.Microarch) *irverify.Result {
		return irverify.VerifyWithOptions(f, arch, irverify.SpecIndex(),
			irverify.Options{Disable: []string{"type"}})
	}
	rep, err := Run(Options{Seed: 1, Count: 120, Verify: broken, NativeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	missed := 0
	for _, class := range []string{DefectArity, DefectType} {
		if st := rep.Stats[class]; st != nil {
			missed += st.Missed
		}
	}
	if missed == 0 {
		t.Fatal("suite did not flag a disabled type pass as missed defects")
	}
	if rep.Bad() == 0 {
		t.Fatal("Bad() == 0 with a broken verifier; the exit gate would stay green")
	}
}

// TestBrokenEffectPassIsCaught does the same for the effect pass,
// whose defect classes (effect, immutable, deadstore) are distinct
// verdict paths.
func TestBrokenEffectPassIsCaught(t *testing.T) {
	broken := func(f *ir.Func, arch *isa.Microarch) *irverify.Result {
		return irverify.VerifyWithOptions(f, arch, irverify.SpecIndex(),
			irverify.Options{Disable: []string{"effect"}})
	}
	rep, err := Run(Options{Seed: 2, Count: 120, Verify: broken, NativeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bad() == 0 {
		t.Fatal("Bad() == 0 with the effect pass disabled")
	}
}

// TestShrinkerMinimizes plants an artificial divergence — a verifier
// hook is not enough here, so it drives shrink() directly against a
// predicate that fails for any recipe still containing a "div" op —
// and checks the shrinker strips everything else away.
func TestShrinkerMinimizes(t *testing.T) {
	rec := Recipe{
		Case: 7, Width: 256, Prim: isa.PrimF32,
		Ops: []string{"add", "div", "mul"}, N: 37, Stride: 2, Tail: true, Reduce: true,
	}
	h := &harness{opts: Options{Seed: 1}}
	// Bypass runCase: probe recipes directly. The shrinker only relies
	// on runCase returning the failure kind, so stub it via shrinkStep's
	// candidate loop against a local reproducer.
	reproduces := func(r Recipe) bool {
		for _, op := range r.Ops {
			if op == "div" {
				return true
			}
		}
		return false
	}
	cur := rec
	for i := 0; i < 64; i++ {
		next, ok := stepWith(h, cur, reproduces)
		if !ok {
			break
		}
		cur = next
	}
	if len(cur.Ops) != 1 || cur.Ops[0] != "div" {
		t.Errorf("ops not minimized: %v", cur.Ops)
	}
	if cur.Tail || cur.Reduce || cur.Stride != 1 {
		t.Errorf("satellites not stripped: %s", cur.String())
	}
	if cur.N >= rec.N {
		t.Errorf("N not shrunk: %d", cur.N)
	}
}

// TestShrinkerProbePath drives runCase the way shrinkStep does —
// record=false — over the whole corpus. This is the path no recorded
// run exercises (it only fires while minimizing a real divergence), so
// it gets its own regression test: a probe must never touch the report
// and, above all, must not panic on the throwaway stats.
func TestShrinkerProbePath(t *testing.T) {
	h, err := newHarness(Options{Seed: 1, NativeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range loadCorpus(t) {
		h.runCase(rec, false)
	}
	if len(h.rep.Stats) != 0 || len(h.rep.Failures) != 0 || h.rep.Shrunk != 0 {
		t.Errorf("probe runs mutated the report: %+v", h.rep)
	}
}

// stepWith mirrors shrinkStep but with an arbitrary reproduction
// predicate, so the shrinker's candidate walk is testable without a
// real divergence.
func stepWith(h *harness, cur Recipe, reproduces func(Recipe) bool) (Recipe, bool) {
	for _, cand := range shrinkCandidates(cur) {
		if reproduces(cand) {
			return cand, true
		}
	}
	return cur, false
}

// TestOracleAgainstKnownValues pins the oracle's lane semantics on a
// handwritten kernel (dst[i] = fma(a[i], s, b[i])) so a regression in
// the reference itself — the one component nothing cross-checks —
// fails loudly against independently computed values.
func TestOracleAgainstKnownValues(t *testing.T) {
	k := dsl.NewKernel("oracle_pin", isa.Haswell.Features)
	dstW := k.ParamF32Ptr()
	dsl.Mutable(k, dstW)
	aW, bW, sW := k.ParamF32Ptr(), k.ParamF32Ptr(), k.ParamF32()
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 8, func(i dsl.Int) {
		va := k.MM256LoaduPs(aW, i)
		vb := k.MM256LoaduPs(bW, i)
		k.MM256StoreuPs(dstW, i, k.MM256FmaddPs(va, k.MM256Set1Ps(sW), vb))
	})
	const count = 16
	args, bufs, err := kernels.BuildArgs(k.F, count, count+8, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOracle(k.F, args); err != nil {
		t.Fatal(err)
	}
	dst, a, b := bufs[0], bufs[1], bufs[2]
	for i := 0; i < count; i++ {
		// BuildArgs passes 1.5 for float scalars; an f32 FMA lane is
		// a*s+b rounded once to f32.
		exact := new(big.Float).SetPrec(1024).SetFloat64(float64(a.F32At(i)))
		exact.Mul(exact, big.NewFloat(1.5))
		exact.Add(exact, new(big.Float).SetFloat64(float64(b.F32At(i))))
		want, _ := exact.Float32()
		if got := dst.F32At(i); got != want {
			t.Fatalf("dst[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestReportJSONRoundTrip ensures the JSON report (the -json CLI
// surface) round-trips recipes including their precision.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := newReport(3, 1)
	rep.stat(DefectAlign).Generated = 1
	rep.Failures = append(rep.Failures, Failure{
		Kind: KindDiverged, Detail: "x",
		Recipe: Recipe{Case: 4, Width: 256, Prim: isa.PrimF64, Ops: []string{"mul"}, N: 9, Stride: 1},
	})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"prim": "f64"`) {
		t.Errorf("serialized report lost the precision:\n%s", buf.String())
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Failures[0].Recipe.Prim != isa.PrimF64 {
		t.Error("round-trip lost Recipe.Prim")
	}
}

// TestReportJSONTotals: the -json report carries the run's totals —
// its per-class rows sum to the cases generated, and the replay matched
// verdicts and executed kernels.
func TestReportJSONTotals(t *testing.T) {
	rep, err := Replay(Options{Seed: 1, NativeEvery: -1}, loadCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	var total ClassStat
	for _, st := range back.Stats {
		total.Generated += st.Generated
		total.Matched += st.Matched
		total.Executed += st.Executed
	}
	if total.Generated == 0 || total.Matched == 0 || total.Executed == 0 {
		t.Errorf("report totals: %+v\n%s", total, buf.String())
	}
	if total.Generated != back.Count {
		t.Errorf("class rows sum to %d generated, report count %d", total.Generated, back.Count)
	}
}

func assertClean(t *testing.T, rep *Report) {
	t.Helper()
	if n := rep.Bad(); n != 0 {
		var buf bytes.Buffer
		rep.Render(&buf)
		t.Fatalf("%d conformance failure(s):\n%s", n, buf.String())
	}
}

// TestCountInvarianceLegExercised: the corpus replay re-runs the cases
// the count proof admits on other data, and counts them without
// executing — a leg that silently checked nothing would pass
// vacuously.
func TestCountInvarianceLegExercised(t *testing.T) {
	rep, err := Replay(Options{Seed: 1, NativeEvery: -1}, loadCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, rep)
	executed := 0
	for _, st := range rep.Stats {
		executed += st.Executed
	}
	if rep.CountChecked == 0 || rep.CountChecked > executed {
		t.Fatalf("count invariance checked %d of %d executed cases", rep.CountChecked, executed)
	}
	if rep.CountOnly == 0 || rep.CountOnly > executed {
		t.Fatalf("count-only evaluation reproduced %d of %d executed cases", rep.CountOnly, executed)
	}
}

// TestOracleFMA32RoundsOnce holds the oracle's f32 FMA to a single
// rounding of the exact a*b+c, computed here in big.Float: on the lane
// where rounding to f64 and then to f32 was one ulp off, on lanes whose
// f64 sum lands on an f32 midpoint (normal and denormal) while the
// exact sum does not, and on seeded random lanes.
func TestOracleFMA32RoundsOnce(t *testing.T) {
	exact := func(a, b, c float32) float32 {
		x := new(big.Float).SetPrec(1024).SetFloat64(float64(a))
		x.Mul(x, new(big.Float).SetFloat64(float64(b)))
		x.Add(x, new(big.Float).SetFloat64(float64(c)))
		f, _ := x.Float32()
		return f
	}
	f32 := math.Float32frombits
	if got := fma32(f32(0x2c000030), f32(0x612c0000), f32(0x30612c00)); math.Float32bits(got) != 0x4dac0041 {
		t.Fatalf("fma32 = %#08x, want 0x4dac0041", math.Float32bits(got))
	}
	mid := float32(1 + 0x1p-23)
	cases := [][3]float32{{mid, 1.5, -0x1p-60}, {mid, 1.5, 0x1p-60}, {-mid, 1.5, 0x1p-60}, {-mid, 1.5, -0x1p-60},
		{(1 + 0x1p-23) * 0x1p-75, (1 - 0x1p-23) * 0x1p-75, 0x1p-126 - 0x1p-149}}
	rng := vm.NewXorshift(3)
	for i := 0; i < 5000; i++ {
		var c [3]float32
		for j := range c {
			c[j] = f32(rng.Next32()&0x807fffff | (100+rng.Next32()%56)<<23)
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		if got, want := fma32(c[0], c[1], c[2]), exact(c[0], c[1], c[2]); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fma32(%g, %g, %g) = %#08x, want %#08x", c[0], c[1], c[2],
				math.Float32bits(got), math.Float32bits(want))
		}
	}
}
