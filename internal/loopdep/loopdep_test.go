package loopdep

import (
	"strings"
	"testing"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/vm"
)

// TestProbesCarryVMFootprint: an intrinsic access is probed with the
// footprint the vm executes it with (vm.AccessOf, Scale included), and
// its direction is the node's effect. A prefetch takes a pointer but
// has no footprint, so its write effect keeps the loop serial.
func TestProbesCarryVMFootprint(t *testing.T) {
	k := dsl.NewKernel("dep_footprint", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamF32Ptr())
	b := k.ParamF32Ptr()
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 8, func(i dsl.Int) {
		k.MM256StoreuPs(a, i, k.MM256LoaduPs(b, i))
		k.MMStoreSs(a, i, k.MMLoadSs(b, i))
	})
	rep := Analyze(k.F, topLoop(t, k.F))
	if !rep.OK || len(rep.Probes) != 4 || rep.Writes() != 2 {
		t.Fatalf("want 4 probes (2 writes), got %+v", rep)
	}
	for _, p := range rep.Probes {
		op := p.Node.Def.Op
		fp, ok := vm.AccessOf(op)
		if !ok || p.Bytes != fp.Bytes || p.Scale != fp.Scale {
			t.Errorf("%s probed as %d bytes at scale %d, the vm states %+v", op, p.Bytes, p.Scale, fp)
		}
		if p.Write != strings.Contains(op, "store") {
			t.Errorf("%s probed with write=%v", op, p.Write)
		}
	}

	k = dsl.NewKernel("dep_prefetch", isa.Haswell.Features)
	c := dsl.Mutable(k, k.ParamI8Ptr())
	n = k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) { k.MMPrefetch(c, i, 3) })
	if rep := Analyze(k.F, topLoop(t, k.F)); rep.OK || !strings.Contains(rep.Reason, "unknown footprint") {
		t.Fatalf("prefetch loop: want a serial verdict naming the unknown footprint, got %+v", rep)
	}
}

// topLoop finds the first top-level loop node of a staged kernel.
func topLoop(t *testing.T, f *ir.Func) *ir.Node {
	t.Helper()
	for _, n := range f.G.Root().Nodes {
		if n.Def.Op == ir.OpLoop {
			return n
		}
	}
	t.Fatal("kernel has no top-level loop")
	return nil
}

// TestAnalyzeElementwise: a[i] = 2*b[i] is the canonical shardable
// loop — two affine probes, a write and a read, no reduction.
func TestAnalyzeElementwise(t *testing.T) {
	k := dsl.NewKernel("dep_elem", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamI32Ptr())
	b := k.ParamI32Ptr()
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		a.Set(i, b.At(i).Mul(k.ConstInt(2)))
	})
	rep := Analyze(k.F, topLoop(t, k.F))
	if !rep.OK {
		t.Fatalf("elementwise loop judged serial: %s", rep.Reason)
	}
	if rep.Writes() != 1 || len(rep.Probes) != 2 {
		t.Fatalf("want 2 probes (1 write), got %d probes (%d writes)",
			len(rep.Probes), rep.Writes())
	}
	if rep.Reduce != nil {
		t.Fatalf("plain loop reported a reduction: %v", rep.Reduce)
	}
}

// TestAnalyzeIntReduction: an integer scalar accumulator is a
// whitelisted exact reduction.
func TestAnalyzeIntReduction(t *testing.T) {
	k := dsl.NewKernel("dep_isum", isa.Haswell.Features)
	b := k.ParamI32Ptr()
	n := k.ParamInt()
	sum := k.ForAccInt(k.ConstInt(0), n, 1, k.ConstInt(0),
		func(i dsl.Int, acc dsl.Int) dsl.Int {
			return acc.Add(b.At(i))
		})
	k.Return(sum)
	rep := Analyze(k.F, topLoop(t, k.F))
	if !rep.OK {
		t.Fatalf("integer sum judged serial: %s", rep.Reason)
	}
	if rep.Reduce == nil || rep.Reduce.Op != "add" || rep.Reduce.Vec {
		t.Fatalf("want scalar add reduction, got %+v", rep.Reduce)
	}
}

// TestAnalyzeFloatReductionSerial: float accumulation is never
// whitelisted — reassociating it changes rounding, and the parallel
// tier's contract is byte-identical results.
func TestAnalyzeFloatReductionSerial(t *testing.T) {
	k := dsl.NewKernel("dep_fsum", isa.Haswell.Features)
	b := k.ParamF32Ptr()
	n := k.ParamInt()
	sum := k.ForAccF32(k.ConstInt(0), n, 1, k.ConstF32(0),
		func(i dsl.Int, acc dsl.F32) dsl.F32 {
			return acc.Add(b.At(i))
		})
	k.Return(sum)
	rep := Analyze(k.F, topLoop(t, k.F))
	if rep.OK {
		t.Fatal("float accumulation must stay serial")
	}
	if !strings.Contains(rep.Reason, "reduction") && !strings.Contains(rep.Reason, "carried") {
		t.Fatalf("reason should name the carried accumulator, got %q", rep.Reason)
	}
}

// TestAnalyzeIndirectStoreSerial: a[b[i]] = i scatters through a
// data-dependent index; no static or probe-based disjointness proof
// exists, so the verdict must be serial.
func TestAnalyzeIndirectStoreSerial(t *testing.T) {
	k := dsl.NewKernel("dep_scatter", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamI32Ptr())
	b := k.ParamI32Ptr()
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		a.Set(b.At(i), i)
	})
	rep := Analyze(k.F, topLoop(t, k.F))
	if rep.OK {
		t.Fatal("data-dependent store index must stay serial")
	}
}

// TestAnalyzeIndirectReadFreeRoot: reading at a data-dependent address
// (a gather) is fine as long as the gathered buffer is not written —
// the analysis records the root for the runtime distinctness check
// instead of going serial.
func TestAnalyzeIndirectReadFreeRoot(t *testing.T) {
	k := dsl.NewKernel("dep_gather", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamI32Ptr())
	b := k.ParamI32Ptr()
	idx := k.ParamI32Ptr()
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		a.Set(i, b.At(idx.At(i)))
	})
	rep := Analyze(k.F, topLoop(t, k.F))
	if !rep.OK {
		t.Fatalf("gather-read loop judged serial: %s", rep.Reason)
	}
	if len(rep.FreeRoots) == 0 {
		t.Fatal("gather read should surface free roots for the runtime aliasing check")
	}
}

// TestAnalyzeNestedWriteSerial: a loop whose body contains another
// loop that writes has no per-iteration window the probe can bound.
func TestAnalyzeNestedWriteSerial(t *testing.T) {
	k := dsl.NewKernel("dep_nested", isa.Haswell.Features)
	a := dsl.Mutable(k, k.ParamI32Ptr())
	n := k.ParamInt()
	k.For(k.ConstInt(0), n, 1, func(i dsl.Int) {
		k.For(k.ConstInt(0), n, 1, func(j dsl.Int) {
			a.Set(j, i)
		})
	})
	rep := Analyze(k.F, topLoop(t, k.F))
	if rep.OK {
		t.Fatal("loop with nested writing loop must stay serial")
	}
}
