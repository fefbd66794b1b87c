package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernelc"
	"repro/internal/obs"
)

// TestFigureBytesInvariantUnderAutoPlan is the figure-level planner
// determinism gate: the same sweep must render byte-identical output
// with the planner off, on the plain lowering tier, with the planner
// calibrating cold, and with it serving calibrated plans warm from
// disk — and the warm run must leave every persisted plan file
// untouched (write-once persistence). Strategy and tier choice move
// wall time, never results: every one executes the identical counted
// op stream. The planned runs have two lanes, so SAXPY has a choice.
func TestFigureBytesInvariantUnderAutoPlan(t *testing.T) {
	sizes := []int{64, 256, 1024, 4096}
	plain := func(s *Suite) { s.RT.Opt = kernelc.TierPlain }
	auto := func(s *Suite) {
		s.RT.Machine.Workers = 2
		s.RT.EnableAutoPlan()
	}
	run := func(conf func(*Suite), dir string, workers int) string {
		s := NewSuite()
		s.MaxRunLinear = 1 << 11
		s.Reps = 4 // enough calls per size bucket to calibrate two candidates
		s.Workers = workers
		if dir != "" {
			d, err := core.OpenDiskCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			s.RT.Disk = d
		}
		if conf != nil {
			conf(s)
		}
		out, err := s.RunFigure("fig6a", sizes)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	base := run(nil, "", 1)
	if got := run(plain, "", 1); got != base {
		t.Fatalf("plain-tier figure diverged from the opt-tier figure:\n--- opt\n%s\n--- plain\n%s", base, got)
	}
	dir := t.TempDir()
	cold := run(auto, dir, 1)
	if cold != base {
		t.Fatalf("cold auto-planned figure diverged from the static figure:\n--- static\n%s\n--- auto\n%s", base, cold)
	}

	// Snapshot the persisted plans, then run warm: the figure must not
	// move and neither must a single plan byte (write-once).
	before := readPlanFiles(t, dir)
	if len(before) == 0 {
		t.Fatal("cold auto run persisted no plan files")
	}
	warm := run(auto, dir, 2) // workers>1: forks share the planner
	if warm != base {
		t.Fatalf("warm auto-planned figure diverged:\n--- static\n%s\n--- warm\n%s", base, warm)
	}
	after := readPlanFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("warm run changed the plan-file set: %d files, was %d", len(after), len(before))
	}
	for name, data := range before {
		if string(after[name]) != string(data) {
			t.Fatalf("warm run rewrote plan file %s", name)
		}
	}
}

// TestFig7BytesInvariantUnderAutoPlan: under the planner every staged
// rep bypasses the memo, so Figure 7's lazily built inputs really
// execute. The table must equal the static one byte for byte; each
// staged series' inputs build exactly once, in one bench.inputs span,
// and the Java series — still counted on their shapes — never build.
func TestFig7BytesInvariantUnderAutoPlan(t *testing.T) {
	sizes := []int{128, 512, 2048, 8192}
	run := func(plan bool) (string, *Suite, *obs.Tracer) {
		s := NewSuite()
		s.MaxRunLinear = 1 << 11
		s.Reps = 2
		s.Workers = 2
		tr := obs.New()
		s.Attach(tr, nil)
		if plan {
			s.RT.Machine.Workers = 2
			s.RT.EnableAutoPlan()
		}
		out, err := s.RunFigure("fig7", sizes)
		if err != nil {
			t.Fatal(err)
		}
		return out, s, tr
	}
	static, s, _ := run(false)
	if n := s.inputBuilds.Load(); n != 0 {
		t.Errorf("static sweep built %d input series, want 0", n)
	}
	auto, s, tr := run(true)
	if auto != static {
		t.Fatalf("auto-planned fig7 diverged from the static figure:\n--- static\n%s\n--- auto\n%s", static, auto)
	}
	if s.stagedMemo.bypassed == 0 {
		t.Fatalf("staged memo %+v: the planner executed nothing", s.stagedMemo)
	}
	builds := map[string]int{}
	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		if sp.Name == "bench.inputs" {
			var attrs []string
			for _, a := range sp.Attrs {
				attrs = append(attrs, a.Key+"="+a.Value)
			}
			builds[strings.Join(attrs, " ")]++
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range tr.Roots() {
		walk(sp)
	}
	want := map[string]int{}
	for _, bits := range fig7Bits {
		want["series=lms bits="+strconv.Itoa(bits)] = 1
	}
	if !reflect.DeepEqual(builds, want) {
		t.Errorf("bench.inputs spans %v, want %v", builds, want)
	}
	if n := s.inputBuilds.Load(); n != int64(len(want)) {
		t.Errorf("%d input series built, want %d", n, len(want))
	}
}

// readPlanFiles maps plan-*.json basenames to contents.
func readPlanFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "plan-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}
