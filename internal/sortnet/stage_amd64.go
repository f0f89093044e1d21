package sortnet

// haveAVX2 reports whether this CPU runs stageAVX2: it has AVX2 and
// POPCNT, and the OS saves YMM state across context switches.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		popcnt  = 1 << 23 // leaf 1 ECX
		osxsave = 1 << 27 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 EBX
		ymm     = 1<<1 | 1<<2
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&popcnt == 0 || ecx1&osxsave == 0 || xcr0()&ymm != ymm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// stageAVX2 runs one compare-exchange stage (k, j) of the bitonic network
// over the integer key images and the index array, four lanes per
// instruction, and returns the number of pairs it swapped. It performs
// exactly the compare-exchanges of Net's scalar stage. The loads and
// stores are unchecked: len(idx) must equal len(keys), a power of two
// >= 4.
//
//go:noescape
func stageAVX2(keys, idx []int, k, j int) (swaps int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xcr0 returns the low word of extended control register 0 (XGETBV with
// ECX = 0); call it only when CPUID reports OSXSAVE.
func xcr0() uint32
