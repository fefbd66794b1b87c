package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestBindingsMatchCheckedIn ties the checked-in bindings to this
// generator: regenerating them from the default specification version
// and the curated intrinsic set must reproduce
// internal/dsl/intrin_gen.go byte for byte. After an intended change
// to the generator or the spec synthesis, regenerate with
// `go run ./cmd/intrinsics-gen`.
func TestBindingsMatchCheckedIn(t *testing.T) {
	out := filepath.Join(t.TempDir(), "intrin_gen.go")
	if err := run("3.3.16", out, false, ""); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "dsl", "intrin_gen.go"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("regenerated bindings differ at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("regenerated bindings have %d lines, the checked-in file %d", len(gl), len(wl))
}
