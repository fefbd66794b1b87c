package bench

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/hotspot"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// TestModelAgreesWithSimulator cross-validates the analytical memory
// model against the set-associative cache simulator: the footprint-based
// cache level the estimator assumes must match the level that actually
// serves the traffic when the same kernel run streams through a
// simulated Haswell hierarchy (warm cache, as the paper measures).
func TestModelAgreesWithSimulator(t *testing.T) {
	s := NewSuite()
	kn, err := s.RT.Compile(kernels.StagedSaxpy(s.RT.Arch.Features))
	if err != nil {
		t.Fatal(err)
	}
	hier := cachesim.NewHaswellHierarchy()
	s.RT.Machine.Cache = hier
	defer func() { s.RT.Machine.Cache = nil }()

	cases := []struct {
		n    int
		want string // analytic level for footprint 8n
	}{
		{1 << 10, "L1"},  // 8KB
		{1 << 13, "L2"},  // 64KB
		{1 << 17, "L3"},  // 1MB
		{1 << 21, "Mem"}, // 16MB
	}
	for _, c := range cases {
		a := vm.PinF32(make([]float32, c.n))
		b := vm.PinF32(make([]float32, c.n))
		args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0),
			vm.F32Value(1.5), vm.IntValue(c.n)}
		hier.Reset()
		// Warm pass fills the caches; measured pass starts warm.
		if _, err := kn.CallValues(args...); err != nil {
			t.Fatal(err)
		}
		hier.ResetCounters()
		if _, err := kn.CallValues(args...); err != nil {
			t.Fatal(err)
		}
		got := hier.DominantLevel(0.25)
		if got != c.want {
			t.Errorf("n=%d (footprint %dKB): simulator says %s, model assumes %s\n%s",
				c.n, 8*c.n>>10, got, c.want, hier)
		}
		if lvl := s.RT.Arch.CacheLevel(8 * c.n); lvl != c.want {
			t.Errorf("analytic level for %dKB = %s, want %s", 8*c.n>>10, lvl, c.want)
		}
	}
}

// TestSimulatorSeesBlockedLocality shows the mechanism behind Figure 6b
// in the simulator: at a cache-straining size the triple loop misses far
// more than the blocked ikj version on the same matrices.
func TestSimulatorSeesBlockedLocality(t *testing.T) {
	s := NewSuite()
	jt, err := s.JVM.Load(kernels.JavaMMMTriple(s.RT.Arch.Features))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := s.JVM.Load(kernels.JavaMMMBlocked(s.RT.Arch.Features))
	if err != nil {
		t.Fatal(err)
	}
	hier := cachesim.NewHaswellHierarchy()
	s.JVM.Machine.Cache = hier
	defer func() { s.JVM.Machine.Cache = nil }()

	const n = 96 // 3×36KB: strains the 32KB L1
	a := vm.PinF32(make([]float32, n*n))
	b := vm.PinF32(make([]float32, n*n))
	c := vm.PinF32(make([]float32, n*n))
	args := []vm.Value{vm.PtrValue(a, 0), vm.PtrValue(b, 0),
		vm.PtrValue(c, 0), vm.IntValue(n)}

	hier.Reset()
	if _, err := jt.InvokeAt(hotspot.TierC2, args...); err != nil {
		t.Fatal(err)
	}
	tripleMisses := hier.L1.Misses

	hier.Reset()
	if _, err := jb.InvokeAt(hotspot.TierC2, args...); err != nil {
		t.Fatal(err)
	}
	blockedMisses := hier.L1.Misses

	if tripleMisses <= blockedMisses {
		t.Errorf("triple loop L1 misses (%d) should exceed blocked (%d)",
			tripleMisses, blockedMisses)
	}
	if float64(tripleMisses) < 1.5*float64(blockedMisses) {
		t.Errorf("locality gap too small: triple %d vs blocked %d misses",
			tripleMisses, blockedMisses)
	}
}
