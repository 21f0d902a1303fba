//go:build !amd64

package blas

// useAVX2 is false off amd64: microKernelGo is the only kernel.
const useAVX2 = false

func kernelAVX2(kc int, a, b, c []float32, ldc int, alpha float32) {
	panic("blas: no AVX2 kernel on this architecture")
}

func kernelRowAVX2(kc, r, panels int, a, b, c []float32, alpha float32) {
	panic("blas: no AVX2 row kernel on this architecture")
}
