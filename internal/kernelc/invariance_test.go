package kernelc_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/conform"
	"repro/internal/hotspot"
	"repro/internal/ir"
	"repro/internal/irverify"
	"repro/internal/isa"
	"repro/internal/kernelc"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// stagedFigureKernels are the staged kernels the figure sweeps and the
// benchmark's library-call workload execute; their counts must be
// reusable.
var stagedFigureKernels = []string{"saxpy", "mmm_blocked", "dot32", "dot16", "dot8", "dot4"}

// TestStagedKernelsAdmitted: every staged kernel the figures and the
// benchmark run passes the proof, so the sweeps reuse their counts;
// any other staged kernel the proof refuses reports why.
func TestStagedKernelsAdmitted(t *testing.T) {
	must := map[string]bool{}
	for _, name := range stagedFigureKernels {
		must[name] = true
	}
	for _, tg := range kernels.Targets() {
		if strings.HasPrefix(tg.Name, "J") {
			continue // Java baselines: see hotspot.TestJavaMethodsAdmitted
		}
		arch := isa.Haswell
		if !arch.Features.Has(tg.Requires...) {
			arch = isa.SkylakeX
		}
		f, err := tg.Build(arch.Features)
		if err != nil {
			t.Fatal(err)
		}
		p, err := kernelc.Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		why := p.Proof()
		switch {
		case must[tg.Name] && why != "":
			t.Errorf("%s refused: %s", tg.Name, why)
		case why != "":
			t.Logf("%s refused: %s", tg.Name, why)
		}
		delete(must, tg.Name)
	}
	for name := range must {
		t.Errorf("figure kernel %s is not in kernels.Targets", name)
	}
}

// countsSound checks the soundness property over cases [0, count) of a
// conform seed: whenever the proof admits a verifier-accepted generated
// kernel, as written or after the simulated C2's SLP rewrite, two
// executions whose memory contents and float arguments differ (so
// their keys agree) end with identical count maps and identical error
// outcomes — and the count-only column: counting without executing
// either refuses, counter untouched, or reproduces the executions'
// outcome, the same count map or the same error. It returns how many
// (kernel, body) pairs were admitted.
func countsSound(t *testing.T, seed uint64, count int) int {
	t.Helper()
	admitted := 0
	for i := 0; i < count; i++ {
		rec, err := conform.Generate(seed, i, isa.Haswell.Features)
		if err != nil {
			continue
		}
		k, err := rec.Build(isa.Haswell.Features, irverify.SpecIndex())
		if err != nil || !irverify.VerifyWithSpec(k.F, isa.Haswell, irverify.SpecIndex()).Ok() {
			continue // error-class mutants never execute, as in conform
		}
		v := hotspot.NewVM(isa.Haswell)
		m, err := v.Load(k.F)
		if err != nil {
			t.Fatalf("%s: %v", rec.String(), err)
		}
		for _, tier := range []hotspot.Tier{hotspot.TierInterpreter, hotspot.TierC2} {
			args1, _, err := kernels.BuildArgs(k.F, rec.N, rec.Elems(), seed+uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			args2, _, err := kernels.BuildArgs(k.F, rec.N, rec.Elems(), ^(seed + uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			for j := range args2 {
				if args2[j].Kind == ir.KindF32 || args2[j].Kind == ir.KindF64 {
					args2[j].F = -float64(i) - 0.75
				}
			}
			key1, ok1 := m.CountKey(tier, args1)
			key2, ok2 := m.CountKey(tier, args2)
			if ok1 != ok2 || key1 != key2 {
				t.Fatalf("%s %v: keys %q/%v and %q/%v differ for equal shapes",
					rec.String(), tier, key1, ok1, key2, ok2)
			}
			if !ok1 {
				continue
			}
			admitted++
			var counts [2]vm.Counter
			var errs [2]error
			for r, args := range [][]vm.Value{args1, args2} {
				v.Machine.Counts.Reset()
				_, errs[r] = m.InvokeAt(tier, args...)
				counts[r] = v.Machine.Counts.Clone()
			}
			if (errs[0] == nil) != (errs[1] == nil) {
				t.Fatalf("%s %v: error outcomes differ: %v vs %v", rec.String(), tier, errs[0], errs[1])
			}
			if !reflect.DeepEqual(counts[0], counts[1]) {
				t.Fatalf("%s %v: admitted key %q but counts differ:\n%v\n%v",
					rec.String(), tier, key1, counts[0], counts[1])
			}
			v.Machine.Counts.Reset()
			cerr := m.CountAt(tier, args2...)
			switch {
			case errors.Is(cerr, kernelc.ErrNotCounted):
				if len(v.Machine.Counts) != 0 {
					t.Fatalf("%s %v: refused (%v) but counted %v", rec.String(), tier, cerr, v.Machine.Counts)
				}
			case cerr != nil || errs[0] != nil:
				if cerr == nil || errs[0] == nil || cerr.Error() != errs[0].Error() {
					t.Fatalf("%s %v: count-only error %v, execution error %v", rec.String(), tier, cerr, errs[0])
				}
			case !reflect.DeepEqual(v.Machine.Counts, counts[0]):
				t.Fatalf("%s %v: counted without executing\n%v\nexecuted\n%v",
					rec.String(), tier, v.Machine.Counts, counts[0])
			}
		}
	}
	return admitted
}

// TestCountKeySoundOnConformSeeds runs the soundness property over a
// fixed slice of the grammar and requires the proof to admit most of
// it — a proof that refused everything would pass vacuously.
func TestCountKeySoundOnConformSeeds(t *testing.T) {
	const count = 60
	if got := countsSound(t, 1, count); got < count/2 {
		t.Fatalf("proof admitted only %d (kernel, body) pairs over %d cases", got, count)
	}
}

// FuzzCountKeySound fuzzes the conform seed: every generated graph the
// proof admits must give identical count maps on differently seeded
// buffer contents and float arguments.
func FuzzCountKeySound(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(7))
	f.Add(uint64(0xFFFFFFFFFFFFFFFF))
	f.Fuzz(func(t *testing.T, seed uint64) {
		countsSound(t, seed, 4)
	})
}
