package vm

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/isa"
)

// TestAccessFootprintMatchesSemantics: for every intrinsic with a
// footprint entry, executing it at every element displacement around a
// buffer's edges fails exactly when the footprint leaves the buffer, so
// a bounds check against the footprint predicts execution's error
// outcome.
func TestAccessFootprintMatchesSemantics(t *testing.T) {
	if len(accessRegistry) < 40 {
		t.Fatalf("only %d footprints registered", len(accessRegistry))
	}
	for name, acc := range accessRegistry {
		in, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s: footprint without semantic", name)
		}
		for _, prim := range []isa.Prim{isa.PrimI8, isa.PrimU16, isa.PrimF32, isa.PrimF64} {
			buf := NewBuffer(prim, 128/(prim.Bits()/8))
			scale := acc.Scale
			if scale == 0 {
				scale = prim.Bits() / 8
			}
			for off := -3; off <= buf.Len()+1; off++ {
				args := []Value{PtrValue(buf, off), VecValue(Vec{}), VecValue(Vec{})}
				byteOff := off * scale
				oob := acc.Bytes > 0 && (byteOff < 0 || byteOff+acc.Bytes > len(buf.Data))
				m := NewMachine(isa.Haswell)
				if _, err := in.Fn(m, args, new(Vec)); (err != nil) != oob {
					t.Fatalf("%s on %v at %d: err %v, footprint predicts out of bounds %v",
						name, prim, off, err, oob)
				}
			}
		}
	}
	for _, name := range []string{"_mm256_maskload_ps", "_mm256_i32gather_ps", "_rdrand32_step"} {
		if _, ok := AccessOf(name); ok {
			t.Errorf("%s has a footprint; its accesses depend on operands or state", name)
		}
	}
}

// TestScalarAndBroadcastAccessesTouchTheCache: the scalar loads and
// stores and the memory broadcasts route their footprint through the
// cache simulator like every other access. Each runs on a fresh
// hierarchy at an element displacement whose footprint, where it can,
// straddles a 64-byte line, and must reach exactly the lines its
// footprint covers.
func TestScalarAndBroadcastAccessesTouchTheCache(t *testing.T) {
	for _, c := range []struct {
		name string
		prim isa.Prim
		off  int
	}{
		{"_mm_load_ss", isa.PrimF32, 15},
		{"_mm_store_ss", isa.PrimF32, 15},
		{"_mm_load_ps1", isa.PrimF32, 15},
		{"_mm_store_ps1", isa.PrimF32, 14},
		{"_mm_store_pd1", isa.PrimF64, 7},
		{"_mm_loaddup_pd", isa.PrimF64, 7},
		{"_mm256_broadcast_sd", isa.PrimF64, 7},
		{"_mm256_broadcast_ps", isa.PrimF32, 14},
		{"_mm256_broadcast_pd", isa.PrimF64, 7},
	} {
		acc, ok := AccessOf(c.name)
		in, _ := Lookup(c.name)
		if !ok || acc.Bytes == 0 {
			t.Fatalf("%s: no footprint", c.name)
		}
		buf := NewBuffer(c.prim, 64)
		scale := acc.Scale
		if scale == 0 {
			scale = c.prim.Bits() / 8
		}
		start := buf.Base + uint64(c.off*scale)
		lines := int64((start+uint64(acc.Bytes)-1)/64 - start/64 + 1)
		m := NewMachine(isa.Haswell)
		m.Cache = cachesim.NewHaswellHierarchy()
		args := []Value{PtrValue(buf, c.off), VecValue(Vec{})}
		if _, err := in.Fn(m, args, new(Vec)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		l1 := m.Cache.L1
		if got := l1.Hits + l1.Misses; got != lines {
			t.Errorf("%s: %d line accesses, footprint of %d bytes at %#x covers %d", c.name, got, acc.Bytes, start, lines)
		}
		var bytes int64
		for _, b := range m.Cache.BytesFrom() {
			bytes += b
		}
		if bytes != 64*lines {
			t.Errorf("%s: %d bytes served, want %d", c.name, bytes, 64*lines)
		}
	}
}

// TestGatherPdTouchesTheCache: _mm256_i32gather_pd routes each lane's
// 8-byte read through the cache simulator, like the 32-bit gathers.
// Two lanes share a line, so a fresh hierarchy sees four line accesses,
// three of them misses.
func TestGatherPdTouchesTheCache(t *testing.T) {
	in, _ := Lookup("_mm256_i32gather_pd")
	buf := NewBuffer(isa.PrimF64, 64)
	var vindex Vec
	idx := []int32{0, 17, 18, 40}
	for i, x := range idx {
		vindex.SetI32(i, x)
	}
	accesses := int64(0)
	lines := map[uint64]bool{}
	for _, x := range idx {
		start := buf.Base + uint64(x)*8
		for l := start / 64; l <= (start+7)/64; l++ {
			accesses++
			lines[l] = true
		}
	}
	if accesses != 4 || len(lines) != 3 {
		t.Fatalf("indices cover %d line accesses on %d lines, want 4 on 3", accesses, len(lines))
	}
	m := NewMachine(isa.Haswell)
	m.Cache = cachesim.NewHaswellHierarchy()
	args := []Value{PtrValue(buf, 0), VecValue(vindex), IntValue(8)}
	if _, err := in.Fn(m, args, new(Vec)); err != nil {
		t.Fatal(err)
	}
	l1 := m.Cache.L1
	if got := l1.Hits + l1.Misses; got != accesses {
		t.Errorf("%d line accesses, the four lanes cover %d", got, accesses)
	}
	if l1.Misses != int64(len(lines)) {
		t.Errorf("%d L1 misses, the four lanes touch %d distinct lines", l1.Misses, len(lines))
	}
	var bytes int64
	for _, b := range m.Cache.BytesFrom() {
		bytes += b
	}
	if bytes != 64*accesses {
		t.Errorf("%d bytes served, want %d", bytes, 64*accesses)
	}
}
