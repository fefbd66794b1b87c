package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseFamilySpellings(t *testing.T) {
	cases := []struct {
		in   string
		want Family
	}{
		{"SSE4.1", SSE41}, {"SSE41", SSE41}, {"sse4.2", SSE42},
		{"AVX-512", AVX512}, {"AVX512F", AVX512}, {"AVX512_BW", AVX512},
		{"KNC", KNC}, {"KNCNI", KNC}, {"MMX", MMX}, {"FMA", FMA},
		{"SVML", SVML}, {"FP16C", FP16C}, {"RDRAND", RDRAND},
	}
	for _, c := range cases {
		got, ok := ParseFamily(c.in)
		if !ok || got != c.want {
			t.Errorf("ParseFamily(%q) = %v/%v, want %v", c.in, got, ok, c.want)
		}
	}
	if _, ok := ParseFamily("QUANTUM9000"); ok {
		t.Error("unknown family accepted")
	}
}

func TestFamilyRoundTrip(t *testing.T) {
	for _, f := range Families() {
		got, ok := ParseFamily(f.String())
		if !ok || got != f {
			t.Errorf("round trip of %v failed: %v/%v", f, got, ok)
		}
	}
}

// TestCategoryRoundTrip: every category's name parses back to it in
// any letter case and with surrounding space; anything else is
// CatOther.
func TestCategoryRoundTrip(t *testing.T) {
	cats := Categories()
	if len(cats) != int(categoryCount) {
		t.Fatalf("Categories() lists %d categories, want %d", len(cats), categoryCount)
	}
	for _, c := range cats {
		name := c.String()
		for _, in := range []string{name, strings.ToLower(name), strings.ToUpper(name), " " + name + "\t"} {
			if got := ParseCategory(in); got != c {
				t.Errorf("ParseCategory(%q) = %v, want %v", in, got, c)
			}
		}
	}
	for _, in := range []string{"", "Arithmetics", "Load Store", "Category(3)", "Trig"} {
		if got := ParseCategory(in); got != CatOther {
			t.Errorf("ParseCategory(%q) = %v, want Other", in, got)
		}
	}
}

func TestImplicationChain(t *testing.T) {
	if !AVX2.Implies(SSE) || !AVX2.Implies(AVX) || !AVX.Implies(SSSE3) {
		t.Error("SSE-stack implication broken")
	}
	if SSE.Implies(AVX) {
		t.Error("implication must not run backwards")
	}
	if AVX512.Implies(KNC) || KNC.Implies(AVX512) {
		t.Error("AVX-512 and KNC are distinct lines")
	}
	if !AVX512.Implies(AVX2) {
		t.Error("AVX-512F machines support AVX2")
	}
}

func TestFeatureSetClosure(t *testing.T) {
	fs := NewFeatureSet(AVX2, FMA)
	for _, f := range []Family{SSE, SSE2, SSE3, SSSE3, SSE41, SSE42, AVX, AVX2, FMA} {
		if !fs.Has(f) {
			t.Errorf("AVX2+FMA set missing %v", f)
		}
	}
	if fs.Has(AVX512) {
		t.Error("feature set over-closed to AVX-512")
	}
	if fs.MaxVectorBits() != 256 {
		t.Errorf("max vector bits = %d", fs.MaxVectorBits())
	}
	fs.Add(AVX512)
	if fs.MaxVectorBits() != 512 {
		t.Errorf("after Add(AVX512): %d", fs.MaxVectorBits())
	}
}

func TestVectorBits(t *testing.T) {
	cases := map[Family]int{MMX: 64, SSE2: 128, AVX: 256, AVX512: 512, POPCNT: 0}
	for f, want := range cases {
		if got := f.VectorBits(); got != want {
			t.Errorf("%v.VectorBits() = %d, want %d", f, got, want)
		}
	}
}

func TestTable1bFamilies(t *testing.T) {
	fams := Table1bFamilies()
	if len(fams) != 13 {
		t.Fatalf("Table 1b lists 13 ISAs, got %d", len(fams))
	}
	if fams[0] != MMX || fams[9] != AVX512 || fams[12] != SVML {
		t.Errorf("Table 1b order wrong: %v", fams)
	}
}

func TestPrimTable2Mapping(t *testing.T) {
	// Table 2 of the paper.
	pairs := []struct {
		p    Prim
		jvm  string
		c    string
		bits int
	}{
		{PrimF32, "Float", "float", 32},
		{PrimF64, "Double", "double", 64},
		{PrimI8, "Byte", "int8_t", 8},
		{PrimU8, "UByte", "uint8_t", 8},
		{PrimI16, "Short", "int16_t", 16},
		{PrimU16, "UShort", "uint16_t", 16},
		{PrimI32, "Int", "int32_t", 32},
		{PrimU32, "UInt", "uint32_t", 32},
		{PrimI64, "Long", "int64_t", 64},
		{PrimU64, "ULong", "uint64_t", 64},
		{PrimBool, "Boolean", "bool", 8},
	}
	for _, c := range pairs {
		if c.p.JVMName() != c.jvm || c.p.CName() != c.c || c.p.Bits() != c.bits {
			t.Errorf("%v: (%s,%s,%d), want (%s,%s,%d)", c.p,
				c.p.JVMName(), c.p.CName(), c.p.Bits(), c.jvm, c.c, c.bits)
		}
	}
}

func TestParsePrimC(t *testing.T) {
	cases := map[string]Prim{
		"unsigned int": PrimU32, "unsigned short": PrimU16,
		"__int64": PrimI64, "unsigned __int64": PrimU64,
		"const float": PrimF32, "char": PrimI8, "size_t": PrimU64,
	}
	for in, want := range cases {
		got, ok := ParsePrimC(in)
		if !ok || got != want {
			t.Errorf("ParsePrimC(%q) = %v/%v, want %v", in, got, ok, want)
		}
	}
}

func TestVecKindLanes(t *testing.T) {
	if M256.Lanes(PrimF32) != 8 || M256d.Lanes(PrimF64) != 4 ||
		M128i.Lanes(PrimI8) != 16 || M512.Lanes(PrimF32) != 16 {
		t.Error("lane math broken")
	}
	v, ok := ParseVecKind("__m256d")
	if !ok || v != M256d {
		t.Errorf("ParseVecKind(__m256d) = %v", v)
	}
}

func TestMicroarchDatabase(t *testing.T) {
	m, err := LookupMicroarch("haswell")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Features.Has(AVX2, FMA, FP16C, RDRAND) {
		t.Error("Haswell missing the paper's required ISAs")
	}
	if m.Features.Has(AVX512) {
		t.Error("Haswell must not have AVX-512")
	}
	if m.CacheLevel(16<<10) != "L1" || m.CacheLevel(100<<10) != "L2" ||
		m.CacheLevel(4<<20) != "L3" || m.CacheLevel(100<<20) != "Mem" {
		t.Error("cache level classification broken")
	}
	if _, err := LookupMicroarch("z80"); err == nil {
		t.Error("unknown microarchitecture accepted")
	}
	if len(Microarchs()) < 4 {
		t.Error("microarchitecture database too small")
	}
}

func TestQuickFeatureSetMonotone(t *testing.T) {
	// Property: adding a family never removes support for another.
	fams := Families()
	err := quick.Check(func(aIdx, bIdx uint8) bool {
		a := fams[int(aIdx)%len(fams)]
		b := fams[int(bIdx)%len(fams)]
		fs := NewFeatureSet(a)
		before := fs.Has(a)
		fs.Add(b)
		return before && fs.Has(a) && fs.Has(b)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestMemoryCategoryHeuristic(t *testing.T) {
	r, w := CatLoad.MemoryCategory()
	if !r || w {
		t.Error("Load category must read only")
	}
	r, w = CatStore.MemoryCategory()
	if r || !w {
		t.Error("Store category must write only")
	}
	r, w = CatArithmetic.MemoryCategory()
	if r || w {
		t.Error("Arithmetic must be memory-free")
	}
}
