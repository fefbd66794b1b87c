package vm

import (
	"testing"

	"repro/internal/isa"
)

// TestAccessFootprintMatchesSemantics: for every intrinsic with a
// footprint entry, executing it at every element displacement around a
// buffer's edges fails exactly when the footprint leaves the buffer —
// through both the plain and the destination-passing semantics — so a
// bounds check against the footprint predicts execution's error
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
				if _, err := in.Fn(m, args); (err != nil) != oob {
					t.Fatalf("%s on %v at %d: err %v, footprint predicts out of bounds %v",
						name, prim, off, err, oob)
				}
				if in.FnInto != nil {
					var out Value
					if err := in.FnInto(m, args, &out); (err != nil) != oob {
						t.Fatalf("%s (into) on %v at %d: err %v, footprint predicts out of bounds %v",
							name, prim, off, err, oob)
					}
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
