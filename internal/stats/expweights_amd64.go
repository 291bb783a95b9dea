package stats

// useAVX2 selects the AVX2 weight kernel. It is set once, from the CPU, and
// only tests change it, to pin both paths on one machine.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 (CPUID leaf 7, EBX bit 5) and
// the OS saves the YMM registers (CPUID.1 OSXSAVE, XCR0 bits 1 and 2).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// expWeightsVec fills the longest prefix of ws it can with the weights of
// ms, on the AVX2 kernel, and returns its length: len(ms) rounded down to
// a multiple of four, or 0 without AVX2 or when a lane of ms takes one of
// log1p's rare branches (about one 256-cell chunk in two million).
func expWeightsVec(ws []float64, ms []uint64) int {
	if useAVX2 && expWeightsAVX2(ws, ms) {
		return len(ms) &^ 3
	}
	return 0
}

// expWeightsAVX2 sets ws[i] = log1pWeight(ms[i]) for the first len(ms)&^3
// cells, four at a time, and reports whether every one of them is right:
// false when any m < 2²⁴ or any normalised mantissa is zero, the lanes
// log1pWeight hands to math.Log1p. ws must be at least as long as ms.
//
//go:noescape
func expWeightsAVX2(ws []float64, ms []uint64) (ok bool)

// cpuid runs CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the state the OS saves.
func xgetbv() (xcr0 uint32)
