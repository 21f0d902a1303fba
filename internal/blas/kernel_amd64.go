package blas

// useAVX2 reports whether the assembly micro-kernel may run: the CPU
// implements AVX2 and the OS saves the YMM registers across context
// switches. It is a property of the machine, decided once.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX, XGETBV usable
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymm     = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avx) != osxsave|avx || xgetbv()&ymm != ymm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// kernelAVX2 is microKernel's body in AVX2 (kernel_amd64.s). It does no
// bounds checking of its own: microKernel's guards are its contract.
//
//go:noescape
func kernelAVX2(kc int, a, b, c []float32, ldc int, alpha float32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
