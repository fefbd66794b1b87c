package server

import (
	"os"
	"testing"
	"time"
)

// TestResultCacheDiskLRU: three disk entries under a two-entry budget,
// the oldest refreshed by a disk hit, lose the middle one.
func TestResultCacheDiskLRU(t *testing.T) {
	rc, err := newResultCache(t.TempDir(), 1, 1<<30) // memory keeps only the newest entry
	if err != nil {
		t.Fatal(err)
	}
	var specs [3]Spec
	var hashes [3]string
	for i := range specs {
		specs[i] = canonicalSpec(Spec{Type: "execute", Kernel: "saxpy", N: 64 << i}, "Haswell")
		hashes[i] = hashSpec(specs[i], "Haswell")
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 2; i++ {
		rc.put(hashes[i], specs[i], "result", "text/plain")
		at := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(rc.files.Path(resultName(hashes[i])), at, at); err != nil {
			t.Fatal(err)
		}
	}
	// Entry 0 is out of memory, so this hit reads disk and refreshes
	// its mtime past entry 1's.
	if _, ok := rc.get(hashes[0], specs[0]); !ok {
		t.Fatal("entry 0 should hit on disk")
	}
	info, err := os.Stat(rc.files.Path(resultName(hashes[1])))
	if err != nil {
		t.Fatal(err)
	}
	rc.diskBudget = 2*info.Size() + info.Size()/2
	rc.put(hashes[2], specs[2], "result", "text/plain")

	for i, want := range []bool{true, false, true} {
		_, err := os.Stat(rc.files.Path(resultName(hashes[i])))
		if got := err == nil; got != want {
			t.Errorf("entry %d on disk = %v, want %v", i, got, want)
		}
	}
}
