package kernelc

import (
	"reflect"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/vm"
)

// stageBranchy stages a loop whose body branches on its index, the
// else arm running a nested loop: it applies both arms' vectors, and
// with a 16-element buffer and n = 17 it faults after both have run.
func stageBranchy() *dsl.Kernel {
	k := dsl.NewKernel("branchy", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		k.If(i.Lt(k.ConstInt(5)), func() {
			a.Set(i, a.At(i).Add(k.ConstF32(1)))
		}, func() {
			k.For(k.ConstInt(0), i, 1, func(j dsl.Int) {
				a.Set(j, a.At(i).Mul(k.ConstF32(2)))
			})
		})
	})
	return k
}

// countCases are the count table's edge cases. Each want is the exact
// counter a Run leaves on a fresh machine, as the string-keyed map
// adds before the count table produced it: zero-valued keys of
// zero-trip loops, the partial counts of a fault (the loops and arms
// completed before it, and no root counts), if arms and nested loops.
var countCases = []struct {
	name     string
	stage    func() *dsl.Kernel
	n, elems int
	wantErr  bool
	want     vm.Counter
}{
	{"saxpy zero-trip tail", saxpyKernel, 64, 64, false, vm.Counter{"_mm256_fmadd_ps": 8, "_mm256_loadu_ps": 16, "_mm256_set1_ps": 1, "_mm256_storeu_ps": 8, "loop.#14": 8, "loop.#21": 0, "scalar.alu": 18, "scalar.fmul": 0, "scalar.fp": 0, "scalar.load": 0, "scalar.loop": 8, "scalar.store": 0}},
	{"saxpy zero-trip loops", saxpyKernel, 0, 8, false, vm.Counter{"_mm256_fmadd_ps": 0, "_mm256_loadu_ps": 0, "_mm256_set1_ps": 1, "_mm256_storeu_ps": 0, "loop.#14": 0, "loop.#21": 0, "scalar.alu": 2, "scalar.fmul": 0, "scalar.fp": 0, "scalar.load": 0, "scalar.loop": 0, "scalar.store": 0}},
	{"saxpy fault in the first loop", saxpyKernel, 64, 40, true, vm.Counter{}},
	{"saxpy fault in the tail", saxpyKernel, 67, 66, true, vm.Counter{"_mm256_fmadd_ps": 8, "_mm256_loadu_ps": 16, "_mm256_storeu_ps": 8, "loop.#14": 8, "scalar.alu": 16, "scalar.loop": 8}},
	{"mmm_blocked nested", mmmKernel, 16, 256, false, vm.Counter{"_mm256_add_ps": 512, "_mm256_loadu_ps": 160, "_mm256_mul_ps": 512, "_mm256_permute2f128_ps": 544, "_mm256_shuffle_ps": 544, "_mm256_storeu_ps": 64, "_mm256_unpackhi_ps": 272, "_mm256_unpacklo_ps": 272, "loop.#118": 64, "loop.#119": 4, "loop.#120": 2, "scalar.alu": 348, "scalar.loop": 70, "scalar.mul": 96}},
	{"mmm_blocked fault mid-nest", mmmKernel, 32, 1000, true, vm.Counter{"_mm256_add_ps": 256, "_mm256_loadu_ps": 64, "_mm256_mul_ps": 256, "_mm256_permute2f128_ps": 256, "_mm256_shuffle_ps": 256, "_mm256_storeu_ps": 32, "_mm256_unpackhi_ps": 128, "_mm256_unpacklo_ps": 128, "loop.#118": 32, "scalar.alu": 128, "scalar.loop": 32, "scalar.mul": 32}},
	{"branchy if arms", stageBranchy, 9, 16, false, vm.Counter{"loop.#11": 26, "loop.#13": 9, "scalar.alu": 9, "scalar.branch": 9, "scalar.fmul": 26, "scalar.fp": 5, "scalar.load": 31, "scalar.loop": 35, "scalar.store": 31}},
	{"branchy fault after arms", stageBranchy, 17, 16, true, vm.Counter{"loop.#11": 110, "scalar.fmul": 110, "scalar.fp": 5, "scalar.load": 115, "scalar.loop": 110, "scalar.store": 115}},
}

func saxpyKernel() *dsl.Kernel { return kernels.StagedSaxpy(isa.Haswell.Features) }
func mmmKernel() *dsl.Kernel   { return kernels.StagedMMM(isa.Haswell.Features) }

// TestCountTableCounts runs every count case at both tiers, serially
// and on two lanes (the trip-count gate lowered so the lanes run), and
// counted without executing where Count admits the call: each must
// leave exactly the case's counter. Each machine's counter starts
// with an entry of its own, which the flush must add to, not replace.
func TestCountTableCounts(t *testing.T) {
	forcePar(t)
	ResetParStats()
	for _, c := range countCases {
		k := c.stage()
		for _, tier := range []Tier{TierOpt, TierPlain} {
			p, err := CompileTier(k.F, tier)
			if err != nil {
				t.Fatal(err)
			}
			for _, lanes := range []int{0, 2} {
				args, _, err := kernels.BuildArgs(k.F, c.n, c.elems, 7)
				if err != nil {
					t.Fatal(err)
				}
				m := parMachine(isa.Haswell, lanes)
				m.Counts.Add("earlier", 3)
				_, err = p.Run(m, args...)
				if (err != nil) != c.wantErr {
					t.Fatalf("%s tier=%v lanes=%d: err = %v, want error %v", c.name, tier, lanes, err, c.wantErr)
				}
				checkCounts(t, c.name+" run", m.Counts, c.want)
			}
			m := vm.NewMachine(isa.Haswell)
			m.Counts.Add("earlier", 3)
			args, _, _ := kernels.BuildArgs(k.F, c.n, c.elems, 7)
			if err := p.Count(m, args...); err == nil {
				checkCounts(t, c.name+" count", m.Counts, c.want)
			}
		}
	}
	if _, runs, _, _, _ := ParStats(); runs == 0 {
		t.Error("no loop ran on lanes")
	}
}

// checkCounts requires got to be want plus the "earlier" entry the
// test put there first.
func checkCounts(t *testing.T, what string, got, want vm.Counter) {
	t.Helper()
	w := want.Clone()
	w.Add("earlier", 3)
	if !reflect.DeepEqual(got, w) {
		t.Errorf("%s: counts\n%v\nwant\n%v", what, got, w)
	}
}

// TestCountTableLayout: the table holds each key once, every block's
// static count vector names exactly its StaticCounts entries, and a
// loop's trip vector is its iteration key, its LoopKey and its body's
// vector.
func TestCountTableLayout(t *testing.T) {
	for _, stage := range []func() *dsl.Kernel{saxpyKernel, mmmKernel, stageBranchy} {
		f := stage().F
		sched := ir.Schedule(f)
		tab := NewCountTable(f, sched)
		seen := map[string]bool{}
		for _, k := range tab.Keys {
			if seen[k] {
				t.Fatalf("key %q twice", k)
			}
			seen[k] = true
		}
		resolve := func(v []SlotCount) []CountDelta {
			var out []CountDelta
			for _, sc := range v {
				out = append(out, CountDelta{tab.Keys[sc.Slot], sc.N})
			}
			return out
		}
		loops := 0
		for b, want := range StaticCounts(f, sched) {
			if got := resolve(tab.Block(b)); !reflect.DeepEqual(got, want) {
				t.Errorf("block vector %v, want %v", got, want)
			}
			for _, n := range sched.Keep[b] {
				if n.Def.Op != ir.OpLoop {
					continue
				}
				loops++
				want := append([]CountDelta{{OpLoopIter, 1}, {LoopKey(n.Sym.ID), 1}},
					StaticCounts(f, sched)[n.Def.Blocks[0]]...)
				if got := resolve(tab.Trip(n)); !reflect.DeepEqual(got, want) {
					t.Errorf("trip vector %v, want %v", got, want)
				}
			}
		}
		if loops == 0 {
			t.Fatal("no loop checked")
		}
	}
}

// TestRdtscSeesCompletedCounts: _rdtsc reads the machine's counter, so
// a run flushes the counts it has made before the read. After a
// six-trip loop on a counter already at 5 it reads 2·(5 + 6·5): the
// loop's trip vector, without the root block's counts, which a run
// applies last.
func TestRdtscSeesCompletedCounts(t *testing.T) {
	k := dsl.NewKernel("tsc", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		a.Set(i, a.At(i).Add(k.ConstF32(1)))
	})
	k.Return(k.Rdtsc())
	p, err := Compile(k.F)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.NewMachine(isa.Haswell)
	m.Counts.Add("earlier", 5)
	out, err := p.Run(m, vm.PtrValue(vm.NewBuffer(isa.PrimF32, 8), 0), vm.IntValue(6))
	if err != nil {
		t.Fatal(err)
	}
	if out.U != 70 {
		t.Errorf("_rdtsc = %d, want 70", out.U)
	}
	want := vm.Counter{"_rdtsc": 1, "earlier": 5, "loop.#6": 6, "scalar.fp": 6,
		"scalar.load": 6, "scalar.loop": 6, "scalar.store": 6}
	if !reflect.DeepEqual(m.Counts, want) {
		t.Errorf("counts %v, want %v", m.Counts, want)
	}
}
