package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDisabledFastPathAllocsNothing is the zero-cost-when-disabled
// guarantee: a nil tracer, span and registry must not allocate on any
// instrumented hot-path operation.
func TestDisabledFastPathAllocsNothing(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("compile")
		sp.SetAttr("kernel", "saxpy")
		c := sp.Child("cgen.emit")
		c.End()
		sp.End()
		reg.Counter("x").Add(1)
		reg.Gauge("y").Set(2)
		reg.Histogram("z").Observe(3)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocated %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkDisabledSpan guards the disabled fast path in CI benchmarks:
// run with -benchmem, the report must show 0 allocs/op.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	var reg *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("call")
		sp.Child("inner").End()
		sp.End()
		reg.Counter("jni").Add(1)
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := New()
	root := tr.Start("ngen.fig6a").SetAttr("workers", "2")
	p0 := root.Child("point#0").SetAttr("n", "64")
	p0.Child("call:saxpy").End()
	p0.End()
	p1 := root.Child("point#1").SetAttr("n", "128")
	p1.End()
	root.End()

	got := tr.Skeleton(nil)
	want := "ngen.fig6a [workers=2]\n" +
		"  point#0 [n=64]\n" +
		"    call:saxpy\n" +
		"  point#1 [n=128]\n"
	if got != want {
		t.Fatalf("skeleton mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Skip filters a subtree out.
	filtered := tr.Skeleton(func(name string) bool { return name == "point#0" })
	if strings.Contains(filtered, "saxpy") || strings.Contains(filtered, "point#0") {
		t.Fatalf("skip must drop the whole subtree:\n%s", filtered)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var nilTr *Tracer
	var nilBuf bytes.Buffer
	if err := nilTr.WriteChromeTrace(&nilBuf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(nilBuf.String()) != "[]" {
		t.Fatalf("nil tracer chrome trace: %q", nilBuf.String())
	}

	tr := New()
	root := tr.Start("ngen.fig6a")
	c := root.Child("ngen.compile").SetAttr("kernel", "saxpy").SetAttr("cache", "miss")
	time.Sleep(time.Millisecond)
	c.End()
	root.Child("call:saxpy").SetTid(3).End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Errorf("event %v: ph=%v, want X", ev["name"], ev["ph"])
		}
		if ev["ts"].(float64) < 0 || ev["dur"].(float64) < 0 {
			t.Errorf("event %v has negative timestamps", ev["name"])
		}
	}
	if events[1]["args"].(map[string]any)["cache"] != "miss" {
		t.Errorf("attributes must export as args: %v", events[1])
	}
	if events[2]["tid"].(float64) != 3 {
		t.Errorf("SetTid must export: %v", events[2])
	}
	// The compile child must nest inside the root's interval.
	rootTs, rootDur := events[0]["ts"].(float64), events[0]["dur"].(float64)
	childTs, childDur := events[1]["ts"].(float64), events[1]["dur"].(float64)
	if childTs < rootTs || childTs+childDur > rootTs+rootDur+0.001 {
		t.Errorf("child [%f,%f] escapes root [%f,%f]",
			childTs, childTs+childDur, rootTs, rootTs+rootDur)
	}
}

func TestCoverageAndTotals(t *testing.T) {
	tr := New()
	sp := tr.Start("ngen.run")
	time.Sleep(5 * time.Millisecond)
	sp.Child("stage").End()
	sp.End()
	if cov := tr.Coverage(); cov < 0.9 {
		t.Fatalf("a root span wrapping the run must cover ~all wall time, got %.2f", cov)
	}
	totals := tr.Totals()
	if len(totals) != 2 || totals[0].Name != "ngen.run" {
		t.Fatalf("totals must aggregate by name, longest first: %+v", totals)
	}
	if totals[0].Count != 1 || totals[0].Total < 5*time.Millisecond {
		t.Fatalf("ngen.run total wrong: %+v", totals[0])
	}

	var nilTr *Tracer
	if nilTr.Coverage() != 0 || nilTr.Totals() != nil {
		t.Fatal("nil tracer must report empty coverage/totals")
	}
}

func TestRegistrySnapshotDeterministicJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ngen.cache.hit").Add(3)
	reg.Counter("ngen.cache.miss").Add(1)
	reg.Gauge("bench.workers").Set(8)
	reg.Histogram("bench.point.ns").Observe(1500)
	reg.Histogram("bench.point.ns").Observe(3000)

	var a, b bytes.Buffer
	if err := reg.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("snapshot JSON must be deterministic")
	}
	var decoded map[string]any
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, a.String())
	}
	cs := decoded["counters"].(map[string]any)
	if cs["ngen.cache.hit"].(float64) != 3 {
		t.Errorf("counter lost: %v", cs)
	}
	hs := decoded["histograms"].(map[string]any)["bench.point.ns"].(map[string]any)
	if hs["count"].(float64) != 2 || hs["sum"].(float64) != 4500 {
		t.Errorf("histogram snapshot wrong: %v", hs)
	}

	snap := reg.Histogram("bench.point.ns").Snapshot()
	if snap.Min != 1500 || snap.Max != 3000 || snap.Mean() != 2250 {
		t.Errorf("hist stats wrong: %+v", snap)
	}
}

// TestConcurrentSpansAndMetrics exercises the locking under -race:
// spans opened from many goroutines under one parent, counters bumped
// concurrently.
func TestConcurrentSpansAndMetrics(t *testing.T) {
	tr := New()
	reg := NewRegistry()
	root := tr.Start("sweep")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := root.Child("point").SetAttr("j", "x")
				sp.Restart()
				sp.End()
				reg.Counter("points").Add(1)
				reg.Histogram("ns").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	root.End()
	if n := reg.Counter("points").Load(); n != 16*50 {
		t.Fatalf("counter raced: %d", n)
	}
	if len(root.Children) != 16*50 {
		t.Fatalf("span tree raced: %d children", len(root.Children))
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 16*50+1 {
		t.Fatalf("chrome trace has %d events, want %d", len(events), 16*50+1)
	}
}

// TestTotalsSelfTime: a span's self-time is its duration minus the
// union of its children's intervals, clipped to the span — overlapping
// (concurrent) children count once, and a child running past its
// parent's end counts only up to it.
func TestTotalsSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := New()
	at := func(name string, begin, dur time.Duration) *Span {
		return &Span{t: tr, Name: name, Begin: begin, Dur: dur, ended: true}
	}
	root := at("point", 0, 100*ms)
	root.Children = []*Span{
		at("call", 10*ms, 30*ms), // [10, 40]
		at("call", 30*ms, 30*ms), // [30, 60], overlaps the first
		at("late", 90*ms, 30*ms), // [90, 120], clipped to [90, 100]
	}
	tr.roots = []*Span{root}
	got := map[string]StageTotal{}
	for _, st := range tr.Totals() {
		got[st.Name] = st
	}
	if st := got["point"]; st.Total != 100*ms || st.Self != 40*ms {
		t.Errorf("point: total %v self %v, want 100ms and 40ms", st.Total, st.Self)
	}
	if st := got["call"]; st.Count != 2 || st.Self != 60*ms {
		t.Errorf("call: %+v, want 2 leaf spans with 60ms self", st)
	}
}
