package vm

// Memory intrinsics: loads, stores, broadcasts from memory, masked and
// gathered accesses. Pointer arguments are displaced buffer references;
// a register load/store moves width/8 bytes starting at the pointer's
// element offset. Alignment-checking variants behave like their
// unaligned counterparts (the simulator's buffers carry no addresses),
// but remain distinct ops so the cost model can price them apart.

// Access is the memory footprint of one intrinsic that dereferences its
// pointer operand (always argument 0): Bytes bytes starting at byte
// offset off·Scale, where off is the pointer's element displacement and
// a zero Scale means the buffer's own element size. Executing the
// intrinsic fails exactly when that range leaves the buffer. Bytes zero
// marks an intrinsic that takes a pointer but never dereferences it
// (prefetch). Masked and gathered accesses, whose footprint depends on
// vector operands, and the RNG steps, which write machine state, have
// no entry.
type Access struct {
	Bytes, Scale int
}

var accessRegistry = map[string]Access{}

// AccessOf returns the footprint of a pointer-taking intrinsic, and
// false when it has none the table can state (see Access).
func AccessOf(name string) (Access, bool) {
	a, ok := accessRegistry[name]
	return a, ok
}

// registerAccess installs a semantic together with its footprint.
func registerAccess(name string, a Access, fn func(m *Machine, args []Value, dst *Vec) (Value, error)) {
	register(name, fn)
	accessRegistry[name] = a
}

func regLoad(name string, bytes int) {
	bindLane(name, Lane{Kernel: KernelLoad(loadBytes), Bits: 8 * bytes, Access: Access{Bytes: bytes}})
}

func regStore(name string, bytes int) {
	bindLane(name, Lane{Kernel: KernelStore(storeBytes), Bits: 8 * bytes, Access: Access{Bytes: bytes}})
}

func init() {
	// Plain loads/stores at every width. The *u (unaligned) and aligned
	// forms share semantics here.
	for _, l := range []struct {
		name  string
		bytes int
	}{
		{"_mm_loadu_ps", 16}, {"_mm_load_ps", 16},
		{"_mm_loadu_pd", 16}, {"_mm_load_pd", 16},
		{"_mm_loadu_si128", 16}, {"_mm_load_si128", 16}, {"_mm_lddqu_si128", 16},
		{"_mm_stream_load_si128", 16},
		{"_mm256_loadu_ps", 32}, {"_mm256_load_ps", 32},
		{"_mm256_loadu_pd", 32}, {"_mm256_load_pd", 32},
		{"_mm256_loadu_si256", 32}, {"_mm256_load_si256", 32},
		{"_mm256_lddqu_si256", 32},
		{"_mm512_loadu_ps", 64}, {"_mm512_loadu_pd", 64}, {"_mm512_loadu_si512", 64},
	} {
		regLoad(l.name, l.bytes)
	}
	for _, s := range []struct {
		name  string
		bytes int
	}{
		{"_mm_storeu_ps", 16}, {"_mm_store_ps", 16},
		{"_mm_storeu_pd", 16}, {"_mm_store_pd", 16},
		{"_mm_storeu_si128", 16}, {"_mm_store_si128", 16}, {"_mm_stream_si128", 16},
		{"_mm256_storeu_ps", 32}, {"_mm256_store_ps", 32}, {"_mm256_stream_ps", 32},
		{"_mm256_storeu_pd", 32}, {"_mm256_store_pd", 32}, {"_mm256_stream_pd", 32},
		{"_mm256_storeu_si256", 32}, {"_mm256_store_si256", 32},
		{"_mm256_stream_si256", 32},
		{"_mm512_storeu_ps", 64}, {"_mm512_storeu_pd", 64}, {"_mm512_storeu_si512", 64},
		{"_mm512_storenrngo_pd", 64},
	} {
		regStore(s.name, s.bytes)
	}

	// Scalar loads/stores.
	registerAccess("_mm_load_ss", Access{Bytes: 4, Scale: 4}, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return Value{}, err
		}
		if err := buf.check(off*4, 4); err != nil {
			return Value{}, err
		}
		m.Touch(buf, off*4, 4)
		out := zero(dst)
		out.SetF32(0, buf.F32At(off))
		return vecResult(out)
	})
	registerAccess("_mm_store_ss", Access{Bytes: 4, Scale: 4}, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return Value{}, err
		}
		if err := buf.check(off*4, 4); err != nil {
			return Value{}, err
		}
		m.Touch(buf, off*4, 4)
		buf.SetF32At(off, argVec(args, 1).F32(0))
		return voidResult()
	})
	registerAccess("_mm_load_ps1", Access{Bytes: 4, Scale: 4}, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return Value{}, err
		}
		if err := buf.check(off*4, 4); err != nil {
			return Value{}, err
		}
		m.Touch(buf, off*4, 4)
		x := buf.F32At(off)
		out := zero(dst)
		for i := 0; i < 4; i++ {
			out.SetF32(i, x)
		}
		return vecResult(out)
	})
	registerAccess("_mm_store_ps1", Access{Bytes: 16, Scale: 4}, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return Value{}, err
		}
		if err := buf.check(off*4, 16); err != nil {
			return Value{}, err
		}
		m.Touch(buf, off*4, 16)
		x := argVec(args, 1).F32(0)
		for i := 0; i < 4; i++ {
			buf.SetF32At(off+i, x)
		}
		return voidResult()
	})
	registerAccess("_mm_store_pd1", Access{Bytes: 16, Scale: 8}, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return Value{}, err
		}
		if err := buf.check(off*8, 16); err != nil {
			return Value{}, err
		}
		m.Touch(buf, off*8, 16)
		x := argVec(args, 1).F64(0)
		for i := 0; i < 2; i++ {
			buf.SetF64At(off+i, x)
		}
		return voidResult()
	})
	registerAccess("_mm_loaddup_pd", Access{Bytes: 8, Scale: 8}, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return Value{}, err
		}
		if err := buf.check(off*8, 8); err != nil {
			return Value{}, err
		}
		m.Touch(buf, off*8, 8)
		x := buf.F64At(off)
		out := zero(dst)
		out.SetF64(0, x)
		out.SetF64(1, x)
		return vecResult(out)
	})

	// Memory broadcasts.
	bindLane("_mm256_broadcast_ss", Lane{Kernel: KernelLoad(broadcastSs), Bits: 256, Access: Access{Bytes: 4, Scale: 4}})
	registerAccess("_mm256_broadcast_sd", Access{Bytes: 8, Scale: 8}, func(m *Machine, args []Value, dst *Vec) (Value, error) {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return Value{}, err
		}
		if err := buf.check(off*8, 8); err != nil {
			return Value{}, err
		}
		m.Touch(buf, off*8, 8)
		x := buf.F64At(off)
		out := zero(dst)
		for i := 0; i < 4; i++ {
			out.SetF64(i, x)
		}
		return vecResult(out)
	})
	bcast128 := func(m *Machine, args []Value, dst *Vec) (Value, error) {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return Value{}, err
		}
		off *= buf.Prim.Bits() / 8
		if err := loadBytes(dst, 128, buf.Data, off); err != nil {
			return Value{}, err
		}
		m.Touch(buf, off, 16)
		copy(dst.b[16:32], dst.b[:16])
		return vecResult(dst)
	}
	registerAccess("_mm256_broadcast_ps", Access{Bytes: 16}, bcast128)
	registerAccess("_mm256_broadcast_pd", Access{Bytes: 16}, bcast128)

	// Masked loads/stores (AVX / AVX2): element moves where the mask's
	// sign bit is set.
	maskLoad := func(elemBytes, n int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			buf, off, err := argPtr(args, 0)
			if err != nil {
				return Value{}, err
			}
			mask := argVec(args, 1)
			out := zero(dst)
			for i := 0; i < n; i++ {
				if mask.b[(i+1)*elemBytes-1]&0x80 == 0 {
					continue
				}
				byteOff := (off + i) * buf.Prim.Bits() / 8
				if err := buf.check(byteOff, elemBytes); err != nil {
					return Value{}, err
				}
				m.Touch(buf, byteOff, elemBytes)
				copy(out.b[i*elemBytes:(i+1)*elemBytes], buf.Data[byteOff:byteOff+elemBytes])
			}
			return vecResult(out)
		}
	}
	maskStore := func(elemBytes, n int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			buf, off, err := argPtr(args, 0)
			if err != nil {
				return Value{}, err
			}
			mask, a := argVec(args, 1), argVec(args, 2)
			for i := 0; i < n; i++ {
				if mask.b[(i+1)*elemBytes-1]&0x80 == 0 {
					continue
				}
				byteOff := (off + i) * buf.Prim.Bits() / 8
				if err := buf.check(byteOff, elemBytes); err != nil {
					return Value{}, err
				}
				m.Touch(buf, byteOff, elemBytes)
				copy(buf.Data[byteOff:byteOff+elemBytes], a.b[i*elemBytes:(i+1)*elemBytes])
			}
			return voidResult()
		}
	}
	register("_mm256_maskload_ps", maskLoad(4, 8))
	register("_mm256_maskstore_ps", maskStore(4, 8))
	register("_mm256_maskload_pd", maskLoad(8, 4))
	register("_mm256_maskstore_pd", maskStore(8, 4))
	register("_mm256_maskload_epi32", maskLoad(4, 8))
	register("_mm256_maskstore_epi32", maskStore(4, 8))

	// Gathers (AVX2): scale is in bytes on hardware; buffers are element-
	// typed here, so the simulator honours scale relative to the element
	// size.
	gather32 := func(n int) func(m *Machine, args []Value, dst *Vec) (Value, error) {
		return func(m *Machine, args []Value, dst *Vec) (Value, error) {
			buf, off, err := argPtr(args, 0)
			if err != nil {
				return Value{}, err
			}
			vindex := argVec(args, 1)
			scale := argInt(args, 2)
			elemBytes := buf.Prim.Bits() / 8
			out := zero(dst)
			for i := 0; i < n; i++ {
				byteOff := off*elemBytes + int(vindex.I32(i))*scale
				if err := buf.check(byteOff, 4); err != nil {
					return Value{}, err
				}
				m.Touch(buf, byteOff, 4)
				copy(out.b[i*4:(i+1)*4], buf.Data[byteOff:byteOff+4])
			}
			return vecResult(out)
		}
	}
	register("_mm256_i32gather_epi32", gather32(8))
	register("_mm256_i32gather_ps", gather32(8))
	register("_mm256_i32gather_pd", func(m *Machine, args []Value, dst *Vec) (Value, error) {
		buf, off, err := argPtr(args, 0)
		if err != nil {
			return Value{}, err
		}
		vindex := argVec(args, 1)
		scale := argInt(args, 2)
		elemBytes := buf.Prim.Bits() / 8
		out := zero(dst)
		for i := 0; i < 4; i++ {
			byteOff := off*elemBytes + int(vindex.I32(i))*scale
			if err := buf.check(byteOff, 8); err != nil {
				return Value{}, err
			}
			m.Touch(buf, byteOff, 8)
			copy(out.b[i*8:(i+1)*8], buf.Data[byteOff:byteOff+8])
		}
		return vecResult(out)
	})

	// Cache-control and fences: no-ops with cost-model presence.
	noop := func(m *Machine, args []Value, dst *Vec) (Value, error) { return voidResult() }
	registerAccess("_mm_prefetch", Access{}, noop)
	for _, n := range []string{"_mm_sfence", "_mm_lfence",
		"_mm_mfence", "_mm256_zeroall", "_mm256_zeroupper"} {
		register(n, noop)
	}
}
