package backend

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ir"
)

// stub is a registrable Backend that compiles nothing.
type stub struct{ name string }

func (s stub) Name() string                       { return s.name }
func (stub) Available() error                     { return nil }
func (stub) Compile(*ir.Func) (Executable, error) { return nil, errors.New("stub") }

// TestLookupResolvesRegisteredOnly: Lookup constructs registered
// backends and nothing else — the interpreter is core's default, not a
// registry entry, so "" and "vm" are unknown here.
func TestLookupResolvesRegisteredOnly(t *testing.T) {
	Register("ltest", func() Backend { return stub{"ltest"} })
	be, err := Lookup("ltest")
	if err != nil || be.Name() != "ltest" {
		t.Fatalf("Lookup(ltest) = %v, %v", be, err)
	}
	for _, name := range []string{"", "vm", "no-such-backend"} {
		if _, err := Lookup(name); err == nil ||
			!strings.Contains(err.Error(), "unknown backend") {
			t.Fatalf("Lookup(%q): %v, want unknown backend", name, err)
		}
	}
}

// TestRegistryNamesAndDuplicates: registered names list "vm" first then
// sorted, and re-registering a name panics (programming error).
func TestRegistryNamesAndDuplicates(t *testing.T) {
	Register("ztest", func() Backend { return stub{"ztest"} })
	Register("atest", func() Backend { return stub{"atest"} })
	names := Names()
	if names[0] != "vm" {
		t.Fatalf("Names()[0] = %q, want vm", names[0])
	}
	ai, zi := -1, -1
	for i, n := range names {
		switch n {
		case "atest":
			ai = i
		case "ztest":
			zi = i
		}
	}
	if ai < 0 || zi < 0 || ai > zi {
		t.Fatalf("registered names missing or unsorted: %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("ztest", func() Backend { return stub{"ztest"} })
}
