package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// chromeEvent is one trace_event entry ("X" = complete event,
// timestamps in microseconds).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace emits the trace in Chrome's trace_event JSON-array
// format, loadable in about://tracing or ui.perfetto.dev. Span lanes
// (Tid) separate concurrently executing sweep points; the whole run is
// one process.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var events []chromeEvent
	var walk func(sp *Span)
	walk = func(sp *Span) {
		ev := chromeEvent{Name: sp.Name, Ph: "X", Pid: 1, Tid: sp.Tid,
			Ts:  float64(sp.Begin) / 1e3,
			Dur: float64(sp.dur(now)) / 1e3}
		if len(sp.Attrs) > 0 {
			ev.Args = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range t.roots {
		walk(sp)
	}
	out, err := json.MarshalIndent(events, "", " ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// StageTotal aggregates every span sharing one name.
type StageTotal struct {
	Name  string
	Count int64
	Total time.Duration
	// Self is the part of Total no child span accounts for: each span's
	// duration minus the union of its children's intervals (clipped to
	// the span), so concurrent children are not subtracted twice.
	Self time.Duration
}

// Totals aggregates span durations (and self-times) by name across the
// whole tree, sorted by descending total — the "where did the
// milliseconds go" table.
func (t *Tracer) Totals() []StageTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	agg := map[string]*StageTotal{}
	var order []string
	var walk func(sp *Span)
	walk = func(sp *Span) {
		st, ok := agg[sp.Name]
		if !ok {
			st = &StageTotal{Name: sp.Name}
			agg[sp.Name] = st
			order = append(order, sp.Name)
		}
		d := sp.dur(now)
		st.Count++
		st.Total += d
		st.Self += d - childCover(sp, now)
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range t.roots {
		walk(sp)
	}
	out := make([]StageTotal, 0, len(order))
	for _, name := range order {
		out = append(out, *agg[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// childCover is the length of the union of sp's children's intervals
// within sp's own interval. Caller holds the tracer lock.
func childCover(sp *Span, now time.Duration) time.Duration {
	if len(sp.Children) == 0 {
		return 0
	}
	lo, hi := sp.Begin, sp.Begin+sp.dur(now)
	type span struct{ b, e time.Duration }
	ivs := make([]span, 0, len(sp.Children))
	for _, c := range sp.Children {
		b, e := max(c.Begin, lo), min(c.Begin+c.dur(now), hi)
		if e > b {
			ivs = append(ivs, span{b, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].b < ivs[j].b })
	var covered, end time.Duration
	for _, iv := range ivs {
		if iv.b > end {
			end = iv.b
		}
		if iv.e > end {
			covered += iv.e - end
			end = iv.e
		}
	}
	return covered
}

// Coverage is the fraction of the tracer's wall time covered by
// top-level spans — the acceptance check that a trace explains where
// the run went (≥ 0.95 for an ngen experiment wrapped in its root
// span).
func (t *Tracer) Coverage() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	if now <= 0 {
		return 0
	}
	var covered time.Duration
	for _, sp := range t.roots {
		covered += sp.dur(now)
	}
	if f := float64(covered) / float64(now); f < 1 {
		return f
	}
	return 1
}

func attrString(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = a.Key + "=" + a.Value
	}
	return " [" + strings.Join(parts, " ") + "]"
}

// Skeleton renders the timing-free structure of the trace — names and
// attributes, indented, in tree order — excluding spans for which skip
// returns true (and their subtrees). Sweep determinism tests compare
// skeletons across worker counts; scheduling-dependent spans (the
// once-per-worker compiles) are skipped by name.
func (t *Tracer) Skeleton(skip func(name string) bool) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	var walk func(sp *Span, depth int)
	walk = func(sp *Span, depth int) {
		if skip != nil && skip(sp.Name) {
			return
		}
		fmt.Fprintf(&b, "%s%s%s\n", strings.Repeat("  ", depth), sp.Name,
			attrString(sp.Attrs))
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	for _, sp := range t.roots {
		walk(sp, 0)
	}
	return b.String()
}
