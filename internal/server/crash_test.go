package server

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/plan"
)

// persistedConsumer is one kind of persisted file, driven through its
// own write and load paths.
type persistedConsumer struct {
	name string
	// field marks a value inside the file whose first digit the
	// bit-flip fault flips, leaving the file parseable.
	field string
	// persist writes state A under one key and state B under another
	// into dir and returns their file names.
	persist func(t *testing.T, dir string) (a, b string)
	// load reads key A back as a fresh process would: its rendering,
	// whether it loaded, and the consumer's corruption count.
	load func(t *testing.T, dir string) (got string, ok bool, corrupt int64)
}

func render(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// compileEntries lists the compile-cache entries in dir.
func compileEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if n := e.Name(); strings.HasSuffix(n, ".json") && !strings.HasPrefix(n, "plan-") {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func diskRuntime(t *testing.T, dir string) (*core.Runtime, *core.DiskCache) {
	t.Helper()
	d, err := core.OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.DefaultRuntime()
	rt.Disk = d
	return rt, d
}

func crashConsumers() []persistedConsumer {
	planKey := func(h uint64) plan.Key { return plan.Key{Hash: h, Arch: "A", Bucket: 3} }
	specA := canonicalSpec(Spec{Type: "execute", Kernel: "saxpy", N: 64}, "Haswell")
	specB := canonicalSpec(Spec{Type: "execute", Kernel: "saxpy", N: 128}, "Haswell")
	ckpt := func(perf float64) map[int][]bench.PointCkpt {
		return map[int][]bench.PointCkpt{0: {{Series: 0, N: 64, PerfBits: math.Float64bits(perf), Bound: "L1"}}}
	}
	openStore := func(t *testing.T, dir string) *fsStore {
		st, err := openFSStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	return []persistedConsumer{
		{
			name:  "compile entry",
			field: `"source":`,
			persist: func(t *testing.T, dir string) (string, string) {
				rt, _ := diskRuntime(t, dir)
				if _, err := rt.Compile(kernels.StagedSaxpy(rt.Arch.Features)); err != nil {
					t.Fatal(err)
				}
				a := compileEntries(t, dir)
				if _, err := rt.Compile(kernels.StagedMMMNaive(rt.Arch.Features)); err != nil {
					t.Fatal(err)
				}
				all := compileEntries(t, dir)
				if len(a) != 1 || len(all) != 2 {
					t.Fatalf("compile entries %v then %v", a, all)
				}
				b := all[0]
				if b == a[0] {
					b = all[1]
				}
				return a[0], b
			},
			load: func(t *testing.T, dir string) (string, bool, int64) {
				rt, d := diskRuntime(t, dir)
				kn, err := rt.Compile(kernels.StagedSaxpy(rt.Arch.Features))
				if err != nil {
					t.Fatal(err)
				}
				st := d.Stats()
				return kn.Source() + kn.CompileCommand(), st.Hits == 1, st.Corrupt
			},
		},
		{
			name:  "plan",
			field: `"pred_ns":`,
			persist: func(t *testing.T, dir string) (string, string) {
				_, d := diskRuntime(t, dir)
				p := plan.New()
				p.SetStore(d)
				specs := []machine.StrategySpec{{Backend: "vm", Lanes: 1},
					{Backend: "vm", Lanes: 2}}
				for i, h := range []uint64{1, 2} {
					key := planKey(h)
					p.Install(key, "k", []machine.StrategyCost{
						{Spec: specs[0], HostNs: 100 + float64(i)}, {Spec: specs[1], HostNs: 120}})
					for j := 0; j < 8 && !p.Calibrated(key); j++ {
						dec, _ := p.Decide(key)
						p.Observe(key, dec.Spec, 90+float64(j))
					}
					if !p.Calibrated(key) {
						t.Fatal("plan did not calibrate")
					}
				}
				return "plan-" + planKey(1).ID() + ".json", "plan-" + planKey(2).ID() + ".json"
			},
			load: func(t *testing.T, dir string) (string, bool, int64) {
				_, d := diskRuntime(t, dir)
				p := plan.New()
				p.SetStore(d)
				dec, ok := p.Decide(planKey(1))
				return render(t, p.Snapshot()), ok && !dec.Probe, d.Stats().Corrupt
			},
		},
		{
			name:  "job record",
			field: `"sizes":`,
			persist: func(t *testing.T, dir string) (string, string) {
				st := openStore(t, dir)
				for i, id := range []string{"j000001", "j000002"} {
					if err := st.put(Record{ID: id, State: StateRunning, CreatedNS: int64(i + 1),
						Spec: Spec{Type: "sweep", Figure: "fig6a", Sizes: []int{64, 128}}}); err != nil {
						t.Fatal(err)
					}
				}
				return jobName("j000001"), jobName("j000002")
			},
			load: func(t *testing.T, dir string) (string, bool, int64) {
				st := openStore(t, dir)
				recs, err := st.loadAll()
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(recs); i++ {
					if recs[i].ID == recs[i-1].ID {
						t.Fatalf("job %s recovered twice", recs[i].ID)
					}
				}
				for _, r := range recs {
					if r.ID == "j000001" {
						return render(t, r), true, st.Corrupt()
					}
				}
				return "", false, st.Corrupt()
			},
		},
		{
			name:  "checkpoint",
			field: `"perf_bits":`,
			persist: func(t *testing.T, dir string) (string, string) {
				st := openStore(t, dir)
				if err := st.putCkpt("j000001", ckpt(1.5)); err != nil {
					t.Fatal(err)
				}
				if err := st.putCkpt("j000002", ckpt(2.5)); err != nil {
					t.Fatal(err)
				}
				return ckptName("j000001"), ckptName("j000002")
			},
			load: func(t *testing.T, dir string) (string, bool, int64) {
				st := openStore(t, dir)
				ck, err := st.loadCkpt("j000001")
				if err != nil {
					t.Fatal(err)
				}
				return render(t, ck), ck != nil, st.Corrupt()
			},
		},
		{
			name:  "result entry",
			field: `"result":`,
			persist: func(t *testing.T, dir string) (string, string) {
				rc, err := newResultCache(dir, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				rc.put(hashSpec(specA, "Haswell"), specA, "vm_ops 12345", "application/json")
				rc.put(hashSpec(specB, "Haswell"), specB, "vm_ops 67890", "application/json")
				return resultName(hashSpec(specA, "Haswell")), resultName(hashSpec(specB, "Haswell"))
			},
			load: func(t *testing.T, dir string) (string, bool, int64) {
				rc, err := newResultCache(dir, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				e, ok := rc.get(hashSpec(specA, "Haswell"), specA)
				return render(t, e), ok, rc.corrupt()
			},
		},
	}
}

// flipField flips the low bit of the first digit after field: the
// digit stays a digit, so the file still parses.
func flipField(t *testing.T, raw []byte, field string) []byte {
	t.Helper()
	at := bytes.Index(raw, []byte(field))
	if at < 0 {
		t.Fatalf("field %s not in file", field)
	}
	out := append([]byte(nil), raw...)
	for i := at + len(field); i < len(out); i++ {
		if out[i] >= '0' && out[i] <= '9' {
			out[i] ^= 1
			return out
		}
	}
	t.Fatalf("no digit after %s", field)
	return nil
}

// staleEnvelope relabels a sealed file with the previous envelope
// version, as an older build would have written it.
func staleEnvelope(t *testing.T, raw []byte) []byte {
	t.Helper()
	out := bytes.Replace(raw, []byte("durable/v1 "), []byte("durable/v0 "), 1)
	if bytes.Equal(out, raw) {
		t.Fatal("file carries no v1 envelope header")
	}
	return out
}

// TestCrashInjection drives every persisted file through each fault a
// crash, a power loss or a stray copy can leave behind. Each must load
// as the old state or as counted corruption, never as wrong data.
func TestCrashInjection(t *testing.T) {
	type outcome int
	const (
		counted outcome = iota // a miss, counted as corruption
		miss                   // a miss; the key check, not the envelope, rejects it
		old                    // loads state A unharmed
	)
	faults := []struct {
		name string
		want outcome
		// damage rewrites file a (or leaves a sibling) in dir.
		damage func(t *testing.T, c persistedConsumer, dir, a, b string)
	}{
		{"torn", counted, func(t *testing.T, _ persistedConsumer, dir, a, _ string) {
			if err := os.Truncate(filepath.Join(dir, a), 40); err != nil {
				t.Fatal(err)
			}
		}},
		{"zero-length", counted, func(t *testing.T, _ persistedConsumer, dir, a, _ string) {
			if err := os.Truncate(filepath.Join(dir, a), 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit flip", counted, func(t *testing.T, c persistedConsumer, dir, a, _ string) {
			rewrite(t, filepath.Join(dir, a), func(raw []byte) []byte { return flipField(t, raw, c.field) })
		}},
		{"stale envelope", counted, func(t *testing.T, _ persistedConsumer, dir, a, _ string) {
			rewrite(t, filepath.Join(dir, a), func(raw []byte) []byte { return staleEnvelope(t, raw) })
		}},
		{"other key's file", miss, func(t *testing.T, _ persistedConsumer, dir, a, b string) {
			rewrite(t, filepath.Join(dir, a), func([]byte) []byte {
				raw, err := os.ReadFile(filepath.Join(dir, b))
				if err != nil {
					t.Fatal(err)
				}
				return raw
			})
		}},
		{"crash before rename", old, func(t *testing.T, _ persistedConsumer, dir, a, _ string) {
			if err := os.WriteFile(filepath.Join(dir, a+".tmp123"), []byte("durable/v1 "), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range crashConsumers() {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.persist(t, dir)
			want, ok, corrupt := c.load(t, dir)
			if !ok || corrupt != 0 {
				t.Fatalf("undamaged file: loaded=%v corrupt=%d", ok, corrupt)
			}
			for _, f := range faults {
				t.Run(f.name, func(t *testing.T) {
					dir := t.TempDir()
					a, b := c.persist(t, dir)
					f.damage(t, c, dir, a, b)
					got, ok, corrupt := c.load(t, dir)
					if ok && got != want {
						t.Fatalf("loaded wrong data:\n got %s\nwant %s", got, want)
					}
					switch {
					case f.want == old && (!ok || corrupt != 0):
						t.Fatalf("want the old state, got loaded=%v corrupt=%d", ok, corrupt)
					case f.want == counted && (ok || corrupt != 1):
						t.Fatalf("want counted corruption, got loaded=%v corrupt=%d", ok, corrupt)
					case f.want == miss && ok:
						t.Fatal("another key's file loaded")
					}
				})
			}
		})
	}
}

func rewrite(t *testing.T, path string, f func([]byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}
