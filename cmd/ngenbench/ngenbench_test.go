package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

func TestPercentileHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median(odd) = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if q1, q3 := percentile(xs, 25), percentile(xs, 75); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 2, 4", q1, q3)
	}
	if got := percentile(xs, 90); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

// TestTailPercentileRule pins the "highest percentile with at least ten
// samples beyond it" rule at the ladder's boundaries.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {999, 95, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
	}
	if v, p := tail([]float64{3, 9, 1}); v != 9 || p != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the maximum 9", v, p)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, p := tail(xs); p != 95 || v != percentile(xs, 95) {
		t.Errorf("tail of 200 samples = %v at p%v, want p95", v, p)
	}
}

// TestAnotherUnit pins the rule that ends a run's timed phase: the first
// unit always runs, and a later one only if a mean-length unit still
// ends within the budget.
func TestAnotherUnit(t *testing.T) {
	if !another(time.Now(), 0, time.Nanosecond) {
		t.Error("the first unit must always run")
	}
	start := time.Now().Add(-6 * time.Second)
	if !another(start, 3, 8500*time.Millisecond) {
		t.Error("6 s spent on 3 units: a fourth fits in 8.5 s")
	}
	if another(start, 2, 8500*time.Millisecond) {
		t.Error("6 s spent on 2 units: a third does not fit in 8.5 s")
	}
}

// TestDealerStrata checks that every n deals use each card, and each
// stratum of a range, exactly once.
func TestDealerStrata(t *testing.T) {
	d := newDealer(rand.New(rand.NewSource(7)), 5)
	for round := 0; round < 3; round++ {
		seen := map[int]bool{}
		for i := 0; i < 5; i++ {
			seen[d.deal()] = true
		}
		if len(seen) != 5 {
			t.Fatalf("round %d dealt %v, want each of 5 cards once", round, seen)
		}
	}
	d = newDealer(rand.New(rand.NewSource(7)), 4)
	strata := map[int]bool{}
	for i := 0; i < 4; i++ {
		v := d.within(100, 139) // strata of 10
		if v < 100 || v > 139 {
			t.Fatalf("within(100, 139) = %d", v)
		}
		strata[(v-100)/10] = true
	}
	if len(strata) != 4 {
		t.Errorf("4 deals hit strata %v, want all 4", strata)
	}
	total := 0
	for _, m := range mix {
		total += m.count
	}
	if total != mixBlock {
		t.Errorf("the mix deals %d jobs per block, want %d", total, mixBlock)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	const blocks = 3
	a, b := schedule(1, blocks), schedule(1, blocks)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(2, blocks)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != blocks*mixBlock {
		t.Fatalf("%d jobs, want %d", len(a), blocks*mixBlock)
	}
	for i, sp := range a {
		switch {
		case sp.Type == "execute" && sp.Kernel == "dot32" && (sp.N%32 != 0 || sp.N < 1<<12 || sp.N > 1<<16):
			t.Errorf("job %d: dot32 n=%d is not a multiple of 32 in [2^12, 2^16]", i, sp.N)
		case sp.Type == "stage" && sp.Kernel == "dot512":
			t.Errorf("job %d stages dot512, which Haswell cannot compile", i)
		case sp.Type == "sweep" && (len(sp.Sizes) != 3 || !sort.IntsAreSorted(sp.Sizes) ||
			sp.Sizes[0] == sp.Sizes[1] || sp.Sizes[1] == sp.Sizes[2]):
			t.Errorf("job %d: sweep sizes %v are not 3 distinct sizes in order", i, sp.Sizes)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue holds BENCHMARK.json at the
// repository root to the metrics this command emits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if len(doc.Command) == 0 || !reflect.DeepEqual(doc.Paths, []string{"cmd/ngenbench"}) ||
		doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("command %v, paths %v, run_seconds %d", doc.Command, doc.Paths, doc.RunSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(want)
	got := append([]string(nil), names...)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(names, allWorkloads) {
		t.Errorf("workloads %v, want %v in that order", names, allWorkloads)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or used twice", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: malformed unit %q", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", name, better)
		}
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d emitted", len(doc.EndToEnd), len(endToEnd))
	}
	e2e := map[string]bool{}
	maxBound := 0.0
	for i, m := range doc.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end_to_end[%d] = %+v, emitted %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		checkName(m.Name, m.Unit, m.Better)
		e2e[m.Name] = true
	}
	if !e2e["setup_s"] || endToEnd[0].Bound != maxBound {
		t.Error("setup_s must be an end-to-end metric with the largest bound")
	}

	layers := perLayer()
	if len(doc.PerLayer) != len(layers) || len(layers) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d emitted", len(doc.PerLayer), len(layers))
	}
	known := map[string]bool{}
	for _, w := range allWorkloads {
		known[w] = true
	}
	for i, m := range doc.PerLayer {
		c := layers[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d] = %+v, emitted %+v", i, m, c)
		}
		checkName(m.Name, m.Unit, m.Better)
		if !e2e[c.Moves] {
			t.Errorf("%s moves %q, not an end-to-end metric", c.Name, c.Moves)
		}
		if len(c.Workloads) == 0 {
			t.Errorf("%s names no workload", c.Name)
		}
		for _, w := range c.Workloads {
			if !known[w] {
				t.Errorf("%s names unknown workload %q", c.Name, w)
			}
		}
	}
}

// TestReplayGuard replays small Fig6b and Fig7 sweeps through the
// public calls: the op totals must match the harness's exactly, and a
// doctored count must trip the guard.
func TestReplayGuard(t *testing.T) {
	for _, c := range []struct {
		figure string
		sizes  []int
		points func(*bench.Suite, []int) []point
	}{
		{"fig6b", []int{8, 64}, mmmPoints},
		{"fig7", []int{128, 256}, dotPoints},
	} {
		s := newFigureSuite()
		if _, err := s.RunFigure(c.figure, c.sizes); err != nil {
			t.Fatal(err)
		}
		ops := s.SweepCounts.Total()
		lt, err := replay(s, func() []point { return c.points(s, c.sizes) })
		if err != nil {
			t.Fatal(err)
		}
		if err := lt.guard(ops); err != nil {
			t.Errorf("%s: %v", c.figure, err)
		}
		if lt.guard(ops+1) == nil {
			t.Errorf("%s: the guard accepted a doctored op count", c.figure)
		}
		if lt.staged == 0 || lt.baseline == 0 || lt.call == 0 || lt.invoke == 0 {
			t.Errorf("%s: replay missed a layer: %+v", c.figure, *lt)
		}
	}
}
