#include "textflag.h"

// func kernelAVX2(kc int, a, b, c []float32, ldc int, alpha float32)
//
// C8×8 += alpha·A8×kc·Bkc×8 over the packed panels: Y0–Y7 hold the
// eight C rows. Each k step loads the packed B row once, broadcasts the
// eight packed A values, and multiplies then adds — never a fused
// multiply-add, so every C element is rounded exactly as the portable
// kernel rounds it. The Go caller has bounds-checked every address this
// touches (microKernel in kernel.go).
TEXT ·kernelAVX2(SB), NOSPLIT, $0-92
	MOVQ kc+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DX
	MOVQ c_base+56(FP), DI
	MOVQ ldc+80(FP), R8
	SHLQ $2, R8

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ CX, CX
	JLE   store

loop:
	VMOVUPS      (DX), Y8
	VBROADCASTSS 0(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y0, Y0
	VBROADCASTSS 4(SI), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y1, Y1
	VBROADCASTSS 8(SI), Y11
	VMULPS       Y8, Y11, Y11
	VADDPS       Y11, Y2, Y2
	VBROADCASTSS 12(SI), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS 16(SI), Y13
	VMULPS       Y8, Y13, Y13
	VADDPS       Y13, Y4, Y4
	VBROADCASTSS 20(SI), Y14
	VMULPS       Y8, Y14, Y14
	VADDPS       Y14, Y5, Y5
	VBROADCASTSS 24(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y6, Y6
	VBROADCASTSS 28(SI), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y7, Y7
	ADDQ         $32, SI
	ADDQ         $32, DX
	DECQ         CX
	JNZ          loop

store:
	// C row += alpha·acc row, one rounding for the product and one for
	// the sum, as in the portable kernel.
	VBROADCASTSS alpha+88(FP), Y8
	VMULPS       Y8, Y0, Y0
	VADDPS       (DI), Y0, Y0
	VMOVUPS      Y0, (DI)
	ADDQ         R8, DI
	VMULPS       Y8, Y1, Y1
	VADDPS       (DI), Y1, Y1
	VMOVUPS      Y1, (DI)
	ADDQ         R8, DI
	VMULPS       Y8, Y2, Y2
	VADDPS       (DI), Y2, Y2
	VMOVUPS      Y2, (DI)
	ADDQ         R8, DI
	VMULPS       Y8, Y3, Y3
	VADDPS       (DI), Y3, Y3
	VMOVUPS      Y3, (DI)
	ADDQ         R8, DI
	VMULPS       Y8, Y4, Y4
	VADDPS       (DI), Y4, Y4
	VMOVUPS      Y4, (DI)
	ADDQ         R8, DI
	VMULPS       Y8, Y5, Y5
	VADDPS       (DI), Y5, Y5
	VMOVUPS      Y5, (DI)
	ADDQ         R8, DI
	VMULPS       Y8, Y6, Y6
	VADDPS       (DI), Y6, Y6
	VMOVUPS      Y6, (DI)
	ADDQ         R8, DI
	VMULPS       Y8, Y7, Y7
	VADDPS       (DI), Y7, Y7
	VMOVUPS      Y7, (DI)
	VZEROUPPER
	RET

// func kernelRowAVX2(kc, r, panels int, a, b, c []float32, alpha float32)
//
// One C row × panels full B panels: c[8j:8j+8] += alpha·Σp a[8p+r]·Bj[p]
// for j < panels, Bj being the packed panel at b + j·kc·8 floats and
// a[8p+r] lane r of a packed A panel. Four panels at a time accumulate
// in Y0–Y3, the rest one at a time in Y0. Each accumulator starts at +0
// and takes the multiply then the add of every k step in order, with
// the operands in kernelAVX2's order, so each C element sees the IEEE
// operations the 8×8 tile applies to it. The Go caller has
// bounds-checked every address this touches (microKernelRow in
// kernel.go).
TEXT ·kernelRowAVX2(SB), NOSPLIT, $0-100
	MOVQ kc+0(FP), CX
	MOVQ r+8(FP), AX
	MOVQ panels+16(FP), BX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ c_base+72(FP), DI
	LEAQ (SI)(AX*4), SI   // lane r
	MOVQ CX, R9
	SHLQ $5, R9           // one B panel: kc·8 floats
	LEAQ (R9)(R9*2), R13  // three B panels
	VBROADCASTSS alpha+96(FP), Y15

quad:
	CMPQ   BX, $4
	JLT    single
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R14
	TESTQ  R14, R14
	JLE    quadstore

quadloop:
	VBROADCASTSS (R10), Y4
	VMULPS       (R11), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       (R11)(R9*1), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       (R11)(R9*2), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       (R11)(R13*1), Y4, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $32, R10
	ADDQ         $32, R11
	DECQ         R14
	JNZ          quadloop

quadstore:
	VMULPS  Y15, Y0, Y0
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VMULPS  Y15, Y1, Y1
	VADDPS  32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	VMULPS  Y15, Y2, Y2
	VADDPS  64(DI), Y2, Y2
	VMOVUPS Y2, 64(DI)
	VMULPS  Y15, Y3, Y3
	VADDPS  96(DI), Y3, Y3
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (DX)(R9*4), DX
	SUBQ    $4, BX
	JMP     quad

single:
	TESTQ  BX, BX
	JLE    done
	VXORPS Y0, Y0, Y0
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R14
	TESTQ  R14, R14
	JLE    singlestore

singleloop:
	VBROADCASTSS (R10), Y4
	VMULPS       (R11), Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $32, R10
	ADDQ         $32, R11
	DECQ         R14
	JNZ          singleloop

singlestore:
	VMULPS  Y15, Y0, Y0
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    R9, DX
	DECQ    BX
	JMP     single

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
