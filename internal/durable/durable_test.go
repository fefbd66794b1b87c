package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

type rec struct {
	ID    string `json:"id"`
	Sizes []int  `json:"sizes"`
}

func TestSealOpenRoundTrip(t *testing.T) {
	want := rec{ID: "j1", Sizes: []int{64, 128}}
	raw, err := Seal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got rec
	if err := Open(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || fmt.Sprint(got.Sizes) != fmt.Sprint(want.Sizes) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

// TestOpenRejects: every damaged or foreign form of a sealed file is
// ErrCorrupt, never a decoded value.
func TestOpenRejects(t *testing.T) {
	raw, err := Seal(rec{ID: "j1", Sizes: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	body := raw[bytes.IndexByte(raw, '\n')+1:]
	stale := append([]byte(strings.Replace(header(body), fmt.Sprintf("/v%d ", version),
		fmt.Sprintf("/v%d ", version-1), 1)), body...)
	for name, in := range map[string][]byte{
		"empty":       nil,
		"truncated":   raw[:len(raw)-3],
		"header":      raw[:bytes.IndexByte(raw, '\n')+1],
		"bare body":   body,
		"stale":       stale,
		"sealed junk": append([]byte(header([]byte("{torn"))), "{torn"...),
	} {
		var got rec
		if err := Open(in, &got); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v (%+v), want ErrCorrupt", name, err, got)
		}
	}
}

// TestDirGetCountsAndRemoves: a corrupt file is a counted, removed
// miss; a missing one is an uncounted miss; Reject counts and removes.
func TestDirGetCountsAndRemoves(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var got rec
	if d.Get("absent.json", &got) || d.Corrupt() != 0 {
		t.Fatalf("missing file: corrupt=%d", d.Corrupt())
	}
	if err := os.WriteFile(d.Path("torn.json"), []byte("durable/v1 00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if d.Get("torn.json", &got) || d.Corrupt() != 1 {
		t.Fatalf("torn file: corrupt=%d", d.Corrupt())
	}
	if _, err := os.Stat(d.Path("torn.json")); !os.IsNotExist(err) {
		t.Fatal("torn file was not removed")
	}
	if err := d.Put("ok.json", rec{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if !d.Get("ok.json", &got) || got.ID != "a" {
		t.Fatalf("Get after Put = %+v", got)
	}
	d.Reject("ok.json")
	if d.Corrupt() != 2 || d.Get("ok.json", &got) {
		t.Fatalf("Reject: corrupt=%d", d.Corrupt())
	}
}

// TestSweepLRU: three matching files under a two-file budget, the
// oldest refreshed by Touch, lose the middle one; files outside the
// pattern are neither counted nor removed.
func TestSweepLRU(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	for i, name := range []string{"a.json", "b.json", "c.json"} {
		if err := d.Put(name, rec{ID: "x"}); err != nil {
			t.Fatal(err)
		}
		at := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(d.Path(name), at, at); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteFile(d.Path("blob.so"), bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	prev := Now
	Now = func() time.Time { return base.Add(time.Hour) }
	defer func() { Now = prev }()
	d.Touch("a.json")

	info, err := os.Stat(d.Path("b.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Sweep("*.json", 2*info.Size()+info.Size()/2); n != 1 {
		t.Fatalf("Sweep removed %d files, want 1", n)
	}
	names, err := d.Names("*")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names, " "); got != "a.json blob.so c.json" {
		t.Fatalf("after sweep: %s", got)
	}
}

// TestConcurrentPutSweep runs writers, readers and sweeps on one
// directory at once (run it under -race). Afterwards no temp file is
// left, every surviving file opens cleanly, and the budget holds.
func TestConcurrentPutSweep(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 4, 40
	var budget int64 = 512
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("e-%d.json", (w*rounds+i)%17)
				v := rec{ID: name, Sizes: []int{w, i}}
				if err := d.Put(name, v); err != nil {
					t.Error(err)
					return
				}
				var got rec
				if d.Get(name, &got) && got.ID != name {
					t.Errorf("%s loaded as %s", name, got.ID)
				}
				d.Touch(name)
				d.Sweep("e-*.json", budget)
			}
		}(w)
	}
	wg.Wait()
	if d.Corrupt() != 0 {
		t.Fatalf("concurrent writes produced %d corrupt loads", d.Corrupt())
	}
	d.Sweep("e-*.json", budget)
	names, err := d.Names("*")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range names {
		if filepath.Ext(name) != ".json" {
			t.Fatalf("leftover temp file %s", name)
		}
		var got rec
		if !d.Get(name, &got) {
			t.Fatalf("%s does not open", name)
		}
		info, err := os.Stat(d.Path(name))
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if total > budget {
		t.Fatalf("%d bytes left over a %d-byte budget", total, budget)
	}
}

// FuzzOpen: Open never panics on arbitrary input, and rejects every
// single-byte mutation of a sealed file.
func FuzzOpen(f *testing.F) {
	f.Add([]byte(`{"id":"j1","sizes":[64]}`), byte(1))
	f.Add([]byte("durable/v1 0000000000000000\n{}"), byte(0x20))
	f.Add([]byte{}, byte(0x80))
	f.Fuzz(func(t *testing.T, data []byte, delta byte) {
		var v any
		Open(data, &v)

		if len(data) > 1<<10 {
			data = data[:1<<10] // each mutation re-hashes the body
		}
		raw, err := Seal(string(data))
		if err != nil {
			t.Fatal(err)
		}
		if delta == 0 {
			delta = 1
		}
		for i := range raw {
			raw[i] ^= delta
			if err := Open(raw, &v); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("mutation at byte %d (^%#x) opened: %v", i, delta, err)
			}
			raw[i] ^= delta
		}
	})
}

// clock stamps mtimes from a logical clock, so two directories given
// the same operations order their files identically.
type clock struct{ t time.Time }

func (c *clock) tick() time.Time {
	c.t = c.t.Add(time.Second)
	return c.t
}

// putAt puts v as name and stamps its mtime at.
func putAt(t *testing.T, d *Dir, name string, v any, at time.Time) {
	t.Helper()
	if err := d.Put(name, v); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(d.Path(name), at, at); err != nil {
		t.Fatal(err)
	}
}

// fullSweep is Sweep as it was before the ledger: a Dir opened afresh
// scans on its first Sweep of a pattern.
func fullSweep(t *testing.T, root, pattern string, budget int64) int {
	t.Helper()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	return d.Sweep(pattern, budget)
}

// listing is the directory's file names, in name order.
func listing(t *testing.T, d *Dir) string {
	t.Helper()
	names, err := d.Names("*")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(names, " ")
}

// TestSweepScansOnlyPastBudget: puts under the budget cost one scan,
// the first; the put that crosses it scans and evicts exactly what a
// full scan evicts.
func TestSweepScansOnlyPastBudget(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Seal(rec{ID: "e00"})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(raw))
	const k = 5
	budget := k*size + size/2
	c := clock{time.Now()}
	for i := 0; i < k; i++ {
		at := c.tick()
		name := fmt.Sprintf("e%02d.json", i)
		putAt(t, d, name, rec{ID: name[:3]}, at)
		putAt(t, ref, name, rec{ID: name[:3]}, at)
		if n := d.Sweep("e*.json", budget); n != 0 {
			t.Fatalf("put %d under budget evicted %d", i, n)
		}
	}
	if got := d.scans.Load(); got != 1 {
		t.Fatalf("%d puts under budget ran %d scans, want 1", k, got)
	}
	for i := k; i < k+3; i++ {
		at := c.tick()
		name := fmt.Sprintf("e%02d.json", i)
		putAt(t, d, name, rec{ID: name[:3]}, at)
		putAt(t, ref, name, rec{ID: name[:3]}, at)
		before := d.scans.Load()
		got, want := d.Sweep("e*.json", budget), fullSweep(t, ref.Root(), "e*.json", budget)
		if d.scans.Load() != before+1 {
			t.Fatalf("put %d crossed the budget without a scan", i)
		}
		if got != want || got != 1 {
			t.Fatalf("put %d: Sweep evicted %d, a full scan %d, want 1", i, got, want)
		}
		if a, b := listing(t, d), listing(t, ref); a != b {
			t.Fatalf("put %d: left %q, a full scan left %q", i, a, b)
		}
	}
}

// TestSweepMatchesFullScan: under one writer, a seeded run of puts of
// varying size, overwrites, touches, rejects and sweeps evicts the same
// files at every step as a full scan, with fewer scans.
func TestSweepMatchesFullScan(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := clock{time.Now()}
	prev := Now
	Now = c.tick
	defer func() { Now = prev }()
	const budget = 2048
	rng := uint64(1)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	const steps = 400
	evicted := 0
	for step := 0; step < steps; step++ {
		name := fmt.Sprintf("e-%02d.json", next(24))
		switch op := next(10); {
		case op < 6:
			v := rec{ID: name, Sizes: make([]int, next(40))}
			at := c.tick()
			putAt(t, d, name, v, at)
			putAt(t, ref, name, v, at)
			if op < 2 {
				if err := WriteFile(d.Path("blob.so"), make([]byte, 512)); err != nil {
					t.Fatal(err)
				}
			}
		case op < 8:
			d.Touch(name)
			at := Now()
			os.Chtimes(ref.Path(name), at, at)
		case op < 9:
			d.Reject(name)
			ref.Reject(name)
		}
		got, want := d.Sweep("e-*.json", budget), fullSweep(t, ref.Root(), "e-*.json", budget)
		if got != want {
			t.Fatalf("step %d: Sweep evicted %d, a full scan %d", step, got, want)
		}
		evicted += got
		if a, b := strings.ReplaceAll(listing(t, d), "blob.so ", ""), listing(t, ref); a != b {
			t.Fatalf("step %d: left %q, a full scan left %q", step, a, b)
		}
	}
	if scans := d.scans.Load(); evicted == 0 || scans >= steps {
		t.Fatalf("%d sweeps evicted %d files in %d scans", steps, evicted, scans)
	}
}

// TestSweepSeesForeignWrites: files a second Dir on the same root or a
// bare WriteFile wrote are not in this Dir's ledger, but the first scan
// the crossing triggers counts them and evicts in mtime order.
func TestSweepSeesForeignWrites(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	other, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Seal(rec{ID: "own0"})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(raw))
	budget := 4*size + size/2
	base := time.Now()
	at := func(i int) time.Time { return base.Add(time.Duration(i) * time.Minute) }

	putAt(t, d, "own0.json", rec{ID: "own0"}, at(3))
	if n := d.Sweep("*.json", budget); n != 0 || d.scans.Load() != 1 {
		t.Fatalf("first sweep: evicted %d, %d scans", n, d.scans.Load())
	}
	putAt(t, other, "for0.json", rec{ID: "for0"}, at(1))
	if err := WriteFile(d.Path("for1.json"), raw); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(d.Path("for1.json"), at(2), at(2)); err != nil {
		t.Fatal(err)
	}
	putAt(t, d, "own1.json", rec{ID: "own1"}, at(4))
	putAt(t, d, "own2.json", rec{ID: "own2"}, at(5))
	// Five files are on disk, but this Dir's ledger knows of three.
	if n := d.Sweep("*.json", budget); n != 0 || d.scans.Load() != 1 {
		t.Fatalf("under this Dir's ledger: evicted %d, %d scans", n, d.scans.Load())
	}
	putAt(t, d, "own3.json", rec{ID: "own3"}, at(6))
	putAt(t, d, "own4.json", rec{ID: "own4"}, at(7))
	if n := d.Sweep("*.json", budget); n != 3 || d.scans.Load() != 2 {
		t.Fatalf("crossing sweep: evicted %d, %d scans, want 3 and 2", n, d.scans.Load())
	}
	if got := listing(t, d); got != "own1.json own2.json own3.json own4.json" {
		t.Fatalf("after the crossing sweep: %s", got)
	}
}

// matchingBytes totals the sizes of the files matching pattern.
func matchingBytes(t *testing.T, d *Dir, pattern string) int64 {
	t.Helper()
	names, err := d.Names(pattern)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range names {
		info, err := os.Stat(d.Path(name))
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestPutSweepRace puts new files while other goroutines sweep (run it
// under -race). Afterwards the ledger still bounds the bytes on disk,
// and one more Sweep leaves them within the budget.
func TestPutSweepRace(t *testing.T) {
	for round := 0; round < 4; round++ {
		d, err := OpenDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		const budget = 4096
		var wg sync.WaitGroup
		done := make(chan struct{})
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
						d.Sweep("e-*.json", budget)
					}
				}
			}()
		}
		var writers sync.WaitGroup
		for w := 0; w < 3; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for i := 0; i < 60; i++ {
					name := fmt.Sprintf("e-%d-%03d.json", w, i)
					if err := d.Put(name, rec{ID: name, Sizes: make([]int, i%30)}); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		writers.Wait()
		close(done)
		wg.Wait()

		total := matchingBytes(t, d, "e-*.json")
		d.mu.Lock()
		bound := d.ledgers["e-*.json"].bound()
		d.mu.Unlock()
		if bound < total {
			t.Fatalf("round %d: ledger bound %d under the %d bytes on disk", round, bound, total)
		}
		d.Sweep("e-*.json", budget)
		total = matchingBytes(t, d, "e-*.json")
		if total > budget {
			t.Fatalf("round %d: %d bytes left over a %d-byte budget", round, total, budget)
		}
	}
}

// BenchmarkDirPutSweep is the per-write cost of a cache under its
// budget: one Put and one Sweep with n matching files resident.
func BenchmarkDirPutSweep(b *testing.B) {
	for _, n := range []int{100, 2000} {
		b.Run(fmt.Sprintf("files=%d", n), func(b *testing.B) {
			d, err := OpenDir(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := d.Put(fmt.Sprintf("res-%04d.json", i), rec{ID: "x"}); err != nil {
					b.Fatal(err)
				}
			}
			d.Sweep("res-*.json", 1<<40)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Put(fmt.Sprintf("res-%04d.json", i%n), rec{ID: "x"}); err != nil {
					b.Fatal(err)
				}
				d.Sweep("res-*.json", 1<<40)
			}
		})
	}
}
