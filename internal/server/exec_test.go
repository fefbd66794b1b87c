package server

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/vm"
)

// TestHexF32sMatchesFmt: the served output encoding is byte-for-byte
// fmt's "%08x" of each float's bits, on the edge values and on seeded
// random bit patterns.
func TestHexF32sMatchesFmt(t *testing.T) {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7fc00001, 0x7fffffff, // quiet NaNs
		0x7f800001, 0xff800001, 0x7fa00000, 0x7fbfffff, // signalling NaNs
		0x00000001, 0x007fffff, 0x80000001, 0x807fffff, // subnormals
		0x3f800000, 0x0000000f, 0x000000f0, 0xffffffff,
	}
	rng := vm.NewXorshift(1)
	for i := 0; i < 10000; i++ {
		bits = append(bits, rng.Next32())
	}
	xs := make([]float32, len(bits))
	for i, b := range bits {
		xs[i] = math.Float32frombits(b)
	}
	got := hexF32s(xs)
	if len(got) != len(xs) {
		t.Fatalf("%d strings for %d floats", len(got), len(xs))
	}
	for i, x := range xs {
		if want := fmt.Sprintf("%08x", math.Float32bits(x)); got[i] != want {
			t.Fatalf("bits %#08x: got %q, want %q", bits[i], got[i], want)
		}
	}
	if got := hexF32s(nil); len(got) != 0 {
		t.Fatalf("hexF32s(nil) = %q", got)
	}
}
