package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// catalogueName is one name a row of docs/OBSERVABILITY.md's metric
// catalogue lists, as a pattern (a <placeholder> matches any non-empty
// text), and whether the row sits in the runtime-gauges table that
// ngend also publishes under "server.".
type catalogueName struct {
	name    string
	pat     *regexp.Regexp
	runtime bool
}

var (
	backticked  = regexp.MustCompile("`([^`]+)`")
	placeholder = regexp.MustCompile(`<[^>]+>`)
)

// readCatalogue parses the metric catalogue section. Within a row's
// first cell, a name starting with "." replaces the last component of
// the name before it: "`ngen.cache.hits` / `.misses`" lists
// ngen.cache.misses.
func readCatalogue(t *testing.T) []catalogueName {
	t.Helper()
	data, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	var out []catalogueName
	in, runtime := false, false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			in = line == "## Metric catalogue"
		case !in:
		case strings.HasPrefix(line, "| `"):
			prev := ""
			for _, m := range backticked.FindAllStringSubmatch(strings.SplitN(line, "|", 3)[1], -1) {
				name := m[1]
				if strings.HasPrefix(name, ".") {
					name = prev[:strings.LastIndexByte(prev, '.')] + name
				}
				prev = name
				pat := placeholder.ReplaceAllString(regexp.QuoteMeta(name), ".+")
				out = append(out, catalogueName{name, regexp.MustCompile("^" + pat + "$"), runtime})
			}
		case strings.HasSuffix(line, ":"):
			runtime = strings.HasPrefix(line, "Runtime gauges")
		}
	}
	if len(out) == 0 {
		t.Fatal("no metric catalogue rows in docs/OBSERVABILITY.md")
	}
	return out
}

// registered lists every counter, gauge and histogram name in a JSON
// registry snapshot.
func registered(t *testing.T, data []byte) []string {
	t.Helper()
	var snap map[string]map[string]json.RawMessage
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, kind := range []string{"counters", "gauges", "histograms"} {
		for name := range snap[kind] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// sweepMetrics snapshots a metric-attached quick fig6a sweep run with
// the planner on and a disk cache, as `ngen -quick -auto -cachedir d
// -metrics fig6a` runs it.
func sweepMetrics(t *testing.T) []string {
	t.Helper()
	s := bench.NewSuite()
	reg := obs.NewRegistry()
	s.Attach(nil, reg)
	s.MaxRunLinear, s.MaxRunCubic, s.Reps = 1<<11, 32, 1
	d, err := core.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.RT.Disk = d
	s.RT.EnableAutoPlan()
	sizes, err := bench.FigureSizes("fig6a", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig6a(sizes); err != nil {
		t.Fatal(err)
	}
	s.PublishMetrics()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return registered(t, buf.Bytes())
}

// serverMetrics snapshots /metrics of an in-process ngend (compile
// cache, job store, result cache) that has served one execute job.
func serverMetrics(t *testing.T) []string {
	t.Helper()
	s, err := server.New(server.Config{Workers: 1, Queue: 4, CacheDir: t.TempDir(),
		StoreDir: t.TempDir(), ResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"type":"execute","kernel":"saxpy","n":64}`))
	if err != nil {
		t.Fatal(err)
	}
	var rec server.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for deadline := time.Now().Add(60 * time.Second); !rec.State.Terminal(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", rec.ID)
		}
		get("/v1/jobs/"+rec.ID, &rec)
	}
	if rec.State != server.StateDone {
		t.Fatalf("job ended %s: %s", rec.State, rec.Error)
	}
	var raw json.RawMessage
	get("/metrics", &raw)
	return registered(t, raw)
}

// catalogueUnreached lists the catalogue names neither snapshot can
// register, with the condition each needs.
var catalogueUnreached = map[string]string{
	"backend.fallback":       "a backend that declines a kernel",
	"backend.native.build":   "the native backend (a plugin toolchain)",
	"backend.native.loadhit": "the native backend",
	"backend.native.corrupt": "the native backend",
	"server.resume.points":   "a daemon restarted mid-sweep (make servecheck reads it)",
}

// TestMetricCatalogue: every metric name a quick fig6a sweep (-auto,
// disk cache) and an ngend serving one job register has a row in
// docs/OBSERVABILITY.md's catalogue, folded into its documented family
// (ngend's runtime rows are the runtime-gauges table under "server."),
// and every name the catalogue lists is registered by one of them.
func TestMetricCatalogue(t *testing.T) {
	cat := readCatalogue(t)
	seen := make([]bool, len(cat))
	match := func(name string, runtimeOnly bool) bool {
		found := false
		for i, c := range cat {
			if (c.runtime || !runtimeOnly) && c.pat.MatchString(name) {
				seen[i], found = true, true
			}
		}
		return found
	}
	var undocumented []string
	for _, name := range sweepMetrics(t) {
		if !match(name, false) {
			undocumented = append(undocumented, name)
		}
	}
	for _, name := range serverMetrics(t) {
		rest, prefixed := strings.CutPrefix(name, "server.")
		if !match(name, false) && !(prefixed && match(rest, true)) {
			undocumented = append(undocumented, name)
		}
	}
	if len(undocumented) > 0 {
		t.Errorf("registered but not in the catalogue: %s", strings.Join(undocumented, ", "))
	}
	for i, c := range cat {
		_, exempt := catalogueUnreached[c.name]
		switch {
		case exempt && seen[i]:
			t.Errorf("%s is registered now: drop it from catalogueUnreached", c.name)
		case !exempt && !seen[i]:
			t.Errorf("catalogue lists %s, which nothing registered", c.name)
		}
	}
}
