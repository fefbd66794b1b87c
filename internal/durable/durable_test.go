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
