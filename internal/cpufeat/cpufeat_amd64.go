package cpufeat

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0: which register state the
// operating system saves and restores.
func xgetbv() (eax, edx uint32)

var avx2 = detectAVX2()

// detectAVX2 follows the Intel SDM's check (vol. 1, 14.3 and 14.7.1):
// the OS uses XSAVE and the CPU has AVX (leaf 1), XCR0 says the OS keeps
// the xmm and ymm state, and leaf 7 reports AVX2.
func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // leaf 1 ECX
		avx     = 1 << 28 // leaf 1 ECX
		ymm     = 0b110   // XCR0: SSE and AVX state
		avx2bit = 1 << 5  // leaf 7 EBX
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if x, _ := xgetbv(); x&ymm != ymm {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2bit != 0
}
