// Package isa models the x86 SIMD instruction-set landscape that the paper
// targets: the 13 vector ISA families of Table 1b plus the small scalar
// extension sets, the vector and primitive type system of Table 2, the
// intrinsic category taxonomy of Table 1a, and a CPUID-style feature model
// used by the runtime pipeline to decide which eDSL dialects are usable on
// a given (simulated) machine.
package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Family identifies one vector ISA family or extension set. The values
// mirror the CPUID strings used by the Intel Intrinsics Guide XML.
type Family int

// The 13 families of Table 1b, followed by the small extension sets
// enumerated in Section 2.1 of the paper.
const (
	FamilyNone Family = iota
	MMX
	SSE
	SSE2
	SSE3
	SSSE3
	SSE41
	SSE42
	AVX
	AVX2
	AVX512
	FMA
	KNC
	SVML
	// Smaller extension sets (grouped: each provides a handful of
	// intrinsics; the paper lists them but does not count them in
	// Table 1b).
	ADX
	AES
	BMI1
	BMI2
	CLFLUSHOPT
	CLWB
	FP16C
	FSGSBASE
	FXSR
	INVPCID
	LZCNT
	MONITOR
	MPX
	PCLMULQDQ
	POPCNT
	PREFETCHWT1
	RDPID
	RDRAND
	RDSEED
	RDTSCP
	RTM
	SHA
	TSC
	XSAVE
	XSAVEC
	XSAVEOPT
	XSS
	familyCount
)

var familyNames = map[Family]string{
	MMX: "MMX", SSE: "SSE", SSE2: "SSE2", SSE3: "SSE3", SSSE3: "SSSE3",
	SSE41: "SSE4.1", SSE42: "SSE4.2", AVX: "AVX", AVX2: "AVX2",
	AVX512: "AVX-512", FMA: "FMA", KNC: "KNCNI", SVML: "SVML",
	ADX: "ADX", AES: "AES", BMI1: "BMI1", BMI2: "BMI2",
	CLFLUSHOPT: "CLFLUSHOPT", CLWB: "CLWB", FP16C: "FP16C",
	FSGSBASE: "FSGSBASE", FXSR: "FXSR", INVPCID: "INVPCID",
	LZCNT: "LZCNT", MONITOR: "MONITOR", MPX: "MPX",
	PCLMULQDQ: "PCLMULQDQ", POPCNT: "POPCNT", PREFETCHWT1: "PREFETCHWT1",
	RDPID: "RDPID", RDRAND: "RDRAND", RDSEED: "RDSEED", RDTSCP: "RDTSCP",
	RTM: "RTM", SHA: "SHA", TSC: "TSC", XSAVE: "XSAVE", XSAVEC: "XSAVEC",
	XSAVEOPT: "XSAVEOPT", XSS: "XSS",
}

// String returns the CPUID spelling used by the vendor XML (e.g. "SSE4.1",
// "AVX-512", "KNCNI").
func (f Family) String() string {
	if s, ok := familyNames[f]; ok {
		return s
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// ParseFamily converts a CPUID string from the XML specification into a
// Family. Matching is case-insensitive and tolerates the historic
// spellings ("SSE4.1" vs "SSE41", "AVX-512" subfeatures such as
// "AVX512F"). Unknown strings return FamilyNone and false.
func ParseFamily(s string) (Family, bool) {
	t := strings.ToUpper(strings.TrimSpace(s))
	t = strings.ReplaceAll(t, "_", "")
	switch {
	case strings.HasPrefix(t, "AVX512") || strings.HasPrefix(t, "AVX-512"):
		return AVX512, true
	case t == "KNC" || t == "KNCNI":
		return KNC, true
	}
	t = strings.ReplaceAll(t, ".", "")
	t = strings.ReplaceAll(t, "-", "")
	for f, name := range familyNames {
		n := strings.ReplaceAll(strings.ReplaceAll(strings.ToUpper(name), ".", ""), "-", "")
		if n == t {
			return f, true
		}
	}
	return FamilyNone, false
}

// Families returns all families in a stable order (Table 1b order first,
// then the small extension sets alphabetically by name).
func Families() []Family {
	out := make([]Family, 0, int(familyCount)-1)
	for f := MMX; f < familyCount; f++ {
		out = append(out, f)
	}
	return out
}

// Table1bFamilies returns the 13 families counted in Table 1b of the
// paper, in the table's order.
func Table1bFamilies() []Family {
	return []Family{MMX, SSE, SSE2, SSE3, SSSE3, SSE41, SSE42, AVX, AVX2, AVX512, FMA, KNC, SVML}
}

// VectorBits reports the widest register width (in bits) that a family's
// intrinsics operate on, or 0 for scalar extension sets.
func (f Family) VectorBits() int {
	switch f {
	case MMX:
		return 64
	case SSE, SSE2, SSE3, SSSE3, SSE41, SSE42, AES, PCLMULQDQ, SHA:
		return 128
	case AVX, AVX2, FMA, FP16C:
		return 256
	case AVX512, KNC, SVML:
		return 512
	default:
		return 0
	}
}

// Implies reports whether hardware supporting f necessarily supports g,
// following Intel's feature nesting (AVX2 ⇒ AVX ⇒ SSE4.2 ⇒ … ⇒ SSE).
// AVX-512 and KNC are intentionally not comparable (distinct lines).
func (f Family) Implies(g Family) bool {
	if f == g {
		return true
	}
	order := []Family{SSE, SSE2, SSE3, SSSE3, SSE41, SSE42, AVX, AVX2}
	fi, gi := -1, -1
	for i, x := range order {
		if x == f {
			fi = i
		}
		if x == g {
			gi = i
		}
	}
	if fi >= 0 && gi >= 0 {
		return fi >= gi
	}
	if f == AVX512 && gi >= 0 {
		return true // AVX-512F machines support the whole SSE/AVX stack.
	}
	return false
}

// Category classifies an intrinsic, mirroring Table 1a plus the remaining
// categories used by the vendor XML.
type Category int

const (
	CatOther Category = iota
	CatArithmetic
	CatCompare
	CatConvert
	CatCrypto
	CatElementary // SVML elementary math functions
	CatGeneral
	CatLoad
	CatLogical
	CatMask
	CatMisc
	CatMove
	CatProbability // SVML statistics (cdfnorm etc.)
	CatRandom
	CatSet
	CatShift
	CatShuffle
	CatSpecialMath
	CatStatistics
	CatStore
	CatString
	CatSwizzle
	CatTrigonometry
	CatBitwise
	CatCacheability
	categoryCount
)

var categoryNames = map[Category]string{
	CatOther: "Other", CatArithmetic: "Arithmetic", CatCompare: "Compare",
	CatConvert: "Convert", CatCrypto: "Cryptography",
	CatElementary: "Elementary Math Functions", CatGeneral: "General Support",
	CatLoad: "Load", CatLogical: "Logical", CatMask: "Mask",
	CatMisc: "Miscellaneous", CatMove: "Move", CatProbability: "Probability/Statistics",
	CatRandom: "Random", CatSet: "Set", CatShift: "Shift", CatShuffle: "Shuffle",
	CatSpecialMath: "Special Math Functions", CatStatistics: "Statistics",
	CatStore: "Store", CatString: "String Compare", CatSwizzle: "Swizzle",
	CatTrigonometry: "Trigonometry", CatBitwise: "Bit Manipulation",
	CatCacheability: "Cacheability",
}

// String returns the vendor-XML spelling of the category.
func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// ParseCategory converts a category string from the XML into a Category.
// Unknown categories map to CatOther (the generator must tolerate new
// categories in future spec versions).
func ParseCategory(s string) Category {
	return categoryByName[strings.ToLower(strings.TrimSpace(s))]
}

// categoryByName maps each lower-cased category name to its Category;
// a missing name reads as the zero value, CatOther.
var categoryByName = func() map[string]Category {
	m := make(map[string]Category, len(categoryNames))
	for c, name := range categoryNames {
		m[strings.ToLower(name)] = c
	}
	return m
}()

// Categories returns all known categories sorted by name, for stable
// statistics output.
func Categories() []Category {
	out := make([]Category, 0, int(categoryCount)-1)
	for c := CatArithmetic; c < categoryCount; c++ {
		out = append(out, c)
	}
	out = append(out, CatOther)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// MemoryCategory reports whether intrinsics in the category touch memory,
// and if so whether they read, write, or both. This drives the paper's
// conservative effect-inference heuristic (Section 3.2: "Infer intrinsic
// mutability").
func (c Category) MemoryCategory() (reads, writes bool) {
	switch c {
	case CatLoad:
		return true, false
	case CatStore:
		return false, true
	case CatCacheability: // prefetch/clflush: treat as both to be safe
		return true, true
	default:
		return false, false
	}
}
