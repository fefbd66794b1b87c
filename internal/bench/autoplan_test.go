package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernelc"
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
