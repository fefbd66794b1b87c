package plan

import (
	"bytes"
	"testing"

	"repro/internal/machine"
)

func spec(b string, lanes int) machine.StrategySpec {
	return machine.StrategySpec{Backend: b, Lanes: lanes}
}

func costs(ns ...float64) []machine.StrategyCost {
	specs := []machine.StrategySpec{
		spec("vm", 1), spec("vm", 2), spec("native", 1),
	}
	out := make([]machine.StrategyCost, len(ns))
	for i, n := range ns {
		out[i] = machine.StrategyCost{Spec: specs[i], HostNs: n}
	}
	return out
}

// TestBucket pins the log2 bucketing: powers of two open their own
// bucket, everything in [2^n, 2^(n+1)) shares it.
func TestBucket(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}, {1025, 10}}
	for _, c := range cases {
		if got := Bucket(c.bytes); got != c.want {
			t.Errorf("Bucket(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

// TestLifecycle walks one key through the planner states: unknown →
// install → probe rotation → calibration, with the measured argmin
// winning over the model's pick (and counting a mispredict). Every
// candidate gets the full probe budget.
func TestLifecycle(t *testing.T) {
	p := New()
	key := Key{Hash: 0xfeed, Arch: "Haswell", Bucket: 10}
	if _, ok := p.Decide(key); ok {
		t.Fatal("Decide hit before any plan was installed")
	}
	// Model says native (80ns) beats serial vm (100) and two lanes (120).
	p.Install(key, "k", costs(100, 120, 80))
	p.Observe(key, spec("vm", 1), 100) // the cold default run

	seen := map[string]int{}
	for i := 0; i < 16 && !p.Calibrated(key); i++ {
		d, ok := p.Decide(key)
		if !ok {
			t.Fatal("Decide missed an installed plan")
		}
		if !d.Probe {
			t.Fatalf("iteration %d: expected a probe while calibrating, got %v", i, d.Spec)
		}
		seen[d.Spec.String()]++
		// Measurement disagrees with the model: serial vm is actually fastest.
		ns := map[string]float64{"vm/1": 90, "vm/2": 200, "native/1": 150}[d.Spec.String()]
		p.Observe(key, d.Spec, ns)
	}
	if !p.Calibrated(key) {
		t.Fatal("plan never calibrated")
	}
	for s, n := range seen {
		if n > 2 {
			t.Errorf("candidate %s probed %d times, budget is 2", s, n)
		}
	}
	d, ok := p.Decide(key)
	if !ok || d.Probe {
		t.Fatalf("calibrated Decide = %+v, %v", d, ok)
	}
	if d.Spec != spec("vm", 1) {
		t.Fatalf("measured argmin lost: chose %v", d.Spec)
	}
	if got := p.Stats()["mispredict"]; got != 1 {
		t.Fatalf("model was overruled but mispredict = %d", got)
	}
	for _, c := range p.Snapshot()[0].Candidates {
		if c.Probes != 2 {
			t.Errorf("candidate %s got %d probes, want the budget of 2", c.Spec, c.Probes)
		}
	}
}

// TestExploreAll: every candidate is probed, even one the model prices
// absurdly slow — no prediction keeps a candidate from being measured.
func TestExploreAll(t *testing.T) {
	p := New()
	key := Key{Hash: 9, Arch: "A", Bucket: 1}
	p.Install(key, "k", costs(100, 1e9, 90)) // two lanes absurdly slow in the model
	p.Observe(key, spec("vm", 1), 100)
	probed := map[string]bool{}
	for i := 0; i < 16 && !p.Calibrated(key); i++ {
		d, _ := p.Decide(key)
		if d.Probe {
			probed[d.Spec.String()] = true
		}
		p.Observe(key, d.Spec, 50)
	}
	if !p.Calibrated(key) {
		t.Fatal("plan never calibrated")
	}
	if !probed["vm/2"] || !probed["native/1"] {
		t.Fatalf("candidates skipped: %v", probed)
	}
}

// memStore is an in-memory plan.Store recording traffic.
type memStore struct {
	m      map[string][]byte
	stores int
}

func (s *memStore) LoadPlan(id string) ([]byte, bool) { b, ok := s.m[id]; return b, ok }
func (s *memStore) StorePlan(id string, b []byte) error {
	if s.m == nil {
		s.m = map[string][]byte{}
	}
	s.m[id] = append([]byte(nil), b...)
	s.stores++
	return nil
}

// TestPersistence pins the warm-start contract: a calibrated plan
// persists exactly once, a fresh planner over the same store serves it
// with zero probes, and the stored bytes never change afterwards
// (write-once — the determinism gate depends on it).
func TestPersistence(t *testing.T) {
	st := &memStore{}
	p := New()
	p.SetStore(st)
	key := Key{Hash: 0xabc, Arch: "Haswell", Bucket: 12}
	p.Install(key, "k", costs(100, 120, 90))
	p.Observe(key, spec("vm", 1), 100)
	for i := 0; i < 8 && !p.Calibrated(key); i++ {
		d, _ := p.Decide(key)
		p.Observe(key, d.Spec, 100+float64(i))
	}
	if !p.Calibrated(key) || st.stores != 1 {
		t.Fatalf("calibrated=%v stores=%d", p.Calibrated(key), st.stores)
	}
	frozen := append([]byte(nil), st.m[key.ID()]...)

	// Warm planner: loads, decides without probing, never rewrites.
	p2 := New()
	p2.SetStore(st)
	d, ok := p2.Decide(key)
	if !ok || d.Probe {
		t.Fatalf("warm Decide = %+v, %v", d, ok)
	}
	for i := 0; i < 4; i++ {
		p2.Observe(key, d.Spec, 80) // post-calibration drift tracking
		p2.Decide(key)
	}
	if st.stores != 1 || !bytes.Equal(st.m[key.ID()], frozen) {
		t.Fatal("warm run rewrote a persisted plan")
	}
	if got := p2.Stats()["probes"]; got != 0 {
		t.Fatalf("warm run ran %d probes, want 0", got)
	}
	if got := p2.Stats()["loads"]; got != 1 {
		t.Fatalf("loads = %d", got)
	}
}

// TestCorruptPlanIgnored: scribbled or mis-keyed plan files miss
// instead of misparse.
func TestCorruptPlanIgnored(t *testing.T) {
	st := &memStore{m: map[string][]byte{}}
	key := Key{Hash: 2, Arch: "A", Bucket: 3}
	st.m[key.ID()] = []byte(`{"version":1,"hash":"junk"`)
	p := New()
	p.SetStore(st)
	if _, ok := p.Decide(key); ok {
		t.Fatal("corrupt plan served a decision")
	}
	// A valid file under the wrong key must also miss.
	other := Key{Hash: 3, Arch: "A", Bucket: 3}
	p2 := New()
	p2.SetStore(st)
	p2.Install(other, "k", costs(100, 120, 90))
	p2.Observe(other, spec("vm", 1), 100)
	for i := 0; i < 8 && !p2.Calibrated(other); i++ {
		d, _ := p2.Decide(other)
		p2.Observe(other, d.Spec, 100)
	}
	raw := st.m[other.ID()]
	st.m[key.ID()] = raw
	p3 := New()
	p3.SetStore(st)
	if _, ok := p3.Decide(key); ok {
		t.Fatal("plan for another key was accepted")
	}
}
