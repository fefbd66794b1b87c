package core

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// TestForkTenantSharesCacheAcrossMachines pins the serving contract:
// tenant forks retargeted at different microarchitectures share one
// compile cache without cross-contaminating (the key includes the
// arch), and each fork's machine state stays private.
func TestForkTenantSharesCacheAcrossMachines(t *testing.T) {
	rt := DefaultRuntime()

	hw := rt.ForkTenant(nil)
	if hw.Arch != rt.Arch || hw.Cache != rt.Cache {
		t.Fatal("nil-arch tenant fork must keep the parent's arch and cache")
	}
	if hw.Machine == rt.Machine {
		t.Fatal("tenant fork must own a private machine")
	}

	skx, err := isa.LookupMicroarch("skylakex")
	if err != nil {
		t.Fatal(err)
	}
	other := rt.ForkTenant(skx)
	if other.Arch != skx {
		t.Fatalf("retargeted fork arch = %s, want %s", other.Arch.Name, skx.Name)
	}
	if other.Cache != rt.Cache {
		t.Fatal("retargeted fork must share the compile cache")
	}

	if _, err := hw.Compile(kernels.StagedSaxpy(hw.Arch.Features)); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Compile(kernels.StagedSaxpy(other.Arch.Features)); err != nil {
		t.Fatal(err)
	}
	st := rt.CacheStats()
	// Two distinct arches: two entries, no hits stolen across machines.
	if st.Entries < 2 {
		t.Fatalf("expected per-arch cache entries, got %d", st.Entries)
	}

	// A second Haswell tenant hits the shared cache.
	hw2 := rt.ForkTenant(rt.Arch)
	before := rt.CacheStats().Hits
	if _, err := hw2.Compile(kernels.StagedSaxpy(hw2.Arch.Features)); err != nil {
		t.Fatal(err)
	}
	if rt.CacheStats().Hits != before+1 {
		t.Fatal("second tenant on the same arch should hit the shared cache")
	}
}

// TestExportedRuntimeStats covers what the serving layer reads of a
// runtime: the backend name /healthz reports, and the disk-cache and
// backend rows PublishMetrics adds only when those parts are attached.
func TestExportedRuntimeStats(t *testing.T) {
	rt := DefaultRuntime()
	if got := rt.BackendName(); got != "vm" {
		t.Fatalf("BackendName = %q, want vm", got)
	}
	published := func() map[string]int64 {
		reg := obs.NewRegistry()
		rt.PublishMetrics(reg, "server.")
		return reg.Snapshot().Gauges
	}
	for name := range published() {
		if strings.HasPrefix(name, "server.ngen.disk.") || strings.HasPrefix(name, "server.backend.") {
			t.Fatalf("interpreter-only runtime without a disk cache published %s", name)
		}
	}
	d, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rt.Disk = d
	if _, ok := published()["server.ngen.disk.hits"]; !ok {
		t.Fatal("disk-cache rows missing once a disk cache is attached")
	}
}
