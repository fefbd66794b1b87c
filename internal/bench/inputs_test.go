package bench

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/vm"
)

// argHash digests one argument set: every value's kind and scalar
// fields, and each pointer's element type, offset and buffer bytes.
func argHash(args []vm.Value) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, a := range args {
		put(uint64(a.Kind))
		put(uint64(a.I))
		put(a.U)
		put(math.Float64bits(a.F))
		if a.Mem != nil {
			put(uint64(a.Mem.Prim))
			put(uint64(a.Off))
			put(uint64(len(a.Mem.Data)))
			h.Write(a.Mem.Data)
		}
	}
	return h.Sum64()
}

// TestFig7InputsMatchSerialBuild: quantizing Figure 7's series
// concurrently from operands drawn once per run size yields, for every
// point of the full axis, the argument set the serial build — fresh
// operands per point, each series' RNG drawn across its sizes in order
// — produces, byte for byte, at any worker bound.
func TestFig7InputsMatchSerialBuild(t *testing.T) {
	bitsList, sizes := []int{32, 16, 8, 4}, Pow2Sizes(7, 26)
	s := NewSuite()
	var want []uint64
	for _, java := range []bool{true, false} {
		for _, bits := range bitsList {
			build, rng := dotArgs, vm.NewXorshift(1234)
			if java {
				build, rng = javaDotArgs, vm.NewXorshift(4321)
			}
			for _, n := range sizes {
				runN := capSize(n, s.MaxRunLinear)
				want = append(want, argHash(build(bits, randSlice(runN, 7), randSlice(runN, 8), rng)))
			}
		}
	}
	if len(want) != 160 {
		t.Fatalf("%d argument sets, want 160", len(want))
	}
	for _, workers := range []int{1, 3, 8} {
		s.Workers = workers
		var got []uint64
		for _, series := range s.fig7Inputs(bitsList, sizes) {
			for _, args := range series {
				got = append(got, argHash(args))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("-j %d: %d argument sets, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("-j %d: argument set %d (series %d, size %d) differs from the serial build",
					workers, i, i/len(sizes), sizes[i%len(sizes)])
			}
		}
	}
}
