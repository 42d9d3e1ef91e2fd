//go:build amd64 && !purego

#include "textflag.h"

// SSE2 kernels for the compiled matrix executor; see emitblock_amd64.go for
// the contracts and emitblock.go for the bit-identity argument. In Go
// assembler operand order ADDPS X1, X0 computes X0 = X0 + X1. Every
// instruction's destination is the operand the Go compiler makes the
// destination in Program.ExecuteMatrixInto — a in a + b, the group in
// g + slab and g * value, the product in product + acc — which decides
// the surviving payload when two NaNs meet.

// func pairStream(scratch, cols []float32, pa, pb, pd []int32, k, pTotal, bw int)
TEXT ·pairStream(SB), NOSPLIT, $0-144
	MOVQ scratch_base+0(FP), SI
	MOVQ cols_base+24(FP), DI
	MOVQ pa_base+48(FP), R8
	MOVQ pb_base+72(FP), R9
	MOVQ pd_base+96(FP), R10
	MOVQ pd_len+104(FP), R11
	MOVQ k+120(FP), R12
	MOVQ pTotal+128(FP), R13
	SHLQ $2, R13              // input row stride in bytes
	MOVQ bw+136(FP), R15
	SHLQ $2, R15              // slab stride (= block width) in bytes
	MOVQ R15, R14
	ANDQ $-16, R14            // bytes covered by whole 4-float chunks

pair:
	TESTQ R11, R11
	JEQ   done

	// AX = &A: input row in place when the location is below k, else its slab.
	MOVLQSX (R8), AX
	CMPQ    AX, R12
	JGE     aslab
	IMULQ   R13, AX
	ADDQ    DI, AX
	JMP     bload

aslab:
	IMULQ R15, AX
	ADDQ  SI, AX

bload:
	// DX = &B, likewise.
	MOVLQSX (R9), DX
	CMPQ    DX, R12
	JGE     bslab
	IMULQ   R13, DX
	ADDQ    DI, DX
	JMP     dload

bslab:
	IMULQ R15, DX
	ADDQ  SI, DX

dload:
	// BX = &D, always a slab.
	MOVLQSX (R10), BX
	IMULQ   R15, BX
	ADDQ    SI, BX

	XORQ CX, CX

chunk:
	CMPQ   CX, R14
	JAE    tail
	MOVUPS (AX)(CX*1), X0
	MOVUPS (DX)(CX*1), X1
	ADDPS  X1, X0             // a + b
	MOVUPS X0, (BX)(CX*1)
	ADDQ   $16, CX
	JMP    chunk

tail:
	CMPQ  CX, R15
	JAE   next
	MOVSS (AX)(CX*1), X0
	ADDSS (DX)(CX*1), X0      // a + b
	MOVSS X0, (BX)(CX*1)
	ADDQ  $4, CX
	JMP   tail

next:
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	DECQ R11
	JMP  pair

done:
	RET

// func emitChunk4(dst, scratch []float32, syms, termOff []int32, values []float32, rowOff []int32, pTotal, bw int)
TEXT ·emitChunk4(SB), NOSPLIT, $0-160
	MOVQ dst_base+0(FP), DI
	MOVQ scratch_base+24(FP), SI
	MOVQ syms_base+48(FP), R8
	MOVQ termOff_base+72(FP), R9
	MOVQ values_base+96(FP), R10
	MOVQ rowOff_base+120(FP), R11
	MOVQ rowOff_len+128(FP), R12
	DECQ R12                  // rows
	MOVQ pTotal+144(FP), R13
	SHLQ $2, R13              // output row stride in bytes
	MOVQ bw+152(FP), R14
	SHLQ $2, R14              // slab stride in bytes

row:
	TESTQ R12, R12
	JLE   done
	MOVLQSX (R11), AX         // t = rowOff[r]
	MOVLQSX 4(R11), BX        // rowOff[r+1]
	XORPS   X0, X0            // acc = +0

term:
	CMPQ    AX, BX
	JGE     store
	MOVLQSX (R9)(AX*4), CX    // j = termOff[t]
	MOVLQSX 4(R9)(AX*4), DX   // termOff[t+1] > j
	XORPS   X1, X1            // g = +0

sym:
	MOVLQSX (R8)(CX*4), R15
	IMULQ   R14, R15
	MOVUPS  (SI)(R15*1), X2
	ADDPS   X2, X1            // g + slab
	INCQ    CX
	CMPQ    CX, DX
	JLT     sym

	MOVSS  (R10)(AX*4), X3
	SHUFPS $0x00, X3, X3      // broadcast values[t]
	MULPS  X3, X1             // g * value
	ADDPS  X0, X1             // (g * value) + acc
	MOVAPS X1, X0
	INCQ   AX
	JMP    term

store:
	MOVUPS X0, (DI)
	ADDQ   R13, DI
	ADDQ   $4, R11
	DECQ   R12
	JMP    row

done:
	RET

// func emitChunk8(dst, scratch []float32, syms, termOff []int32, values []float32, rowOff []int32, pTotal, bw int)
//
// emitChunk4 over two adjacent chunks in one walk of the stream: the two
// chunks' addition chains are independent, so they overlap in the adder.
TEXT ·emitChunk8(SB), NOSPLIT, $0-160
	MOVQ dst_base+0(FP), DI
	MOVQ scratch_base+24(FP), SI
	MOVQ syms_base+48(FP), R8
	MOVQ termOff_base+72(FP), R9
	MOVQ values_base+96(FP), R10
	MOVQ rowOff_base+120(FP), R11
	MOVQ rowOff_len+128(FP), R12
	DECQ R12
	MOVQ pTotal+144(FP), R13
	SHLQ $2, R13
	MOVQ bw+152(FP), R14
	SHLQ $2, R14

row:
	TESTQ R12, R12
	JLE   done
	MOVLQSX (R11), AX
	MOVLQSX 4(R11), BX
	XORPS   X0, X0            // acc, columns 0-3
	XORPS   X1, X1            // acc, columns 4-7

term:
	CMPQ    AX, BX
	JGE     store
	MOVLQSX (R9)(AX*4), CX
	MOVLQSX 4(R9)(AX*4), DX
	XORPS   X2, X2            // g, columns 0-3
	XORPS   X3, X3            // g, columns 4-7

sym:
	MOVLQSX (R8)(CX*4), R15
	IMULQ   R14, R15
	MOVUPS  (SI)(R15*1), X4
	MOVUPS  16(SI)(R15*1), X5
	ADDPS   X4, X2
	ADDPS   X5, X3
	INCQ    CX
	CMPQ    CX, DX
	JLT     sym

	MOVSS  (R10)(AX*4), X6
	SHUFPS $0x00, X6, X6
	MULPS  X6, X2
	MULPS  X6, X3
	ADDPS  X0, X2
	ADDPS  X1, X3
	MOVAPS X2, X0
	MOVAPS X3, X1
	INCQ   AX
	JMP    term

store:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   R13, DI
	ADDQ   $4, R11
	DECQ   R12
	JMP    row

done:
	RET
