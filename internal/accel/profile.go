package accel

import (
	"repro/internal/ipe"
	"repro/internal/tensor"
)

// wordBytes is the activation/weight word size (float32 / int32 words).
const wordBytes = 4

// symbolBytes returns the fixed-width encoding size of a symbol id for a
// program with the given symbol count: 2 bytes up to 64Ki symbols, 4 after.
func symbolBytes(numSymbols int) int64 {
	if numSymbols <= 1<<16 {
		return 2
	}
	return 4
}

// DenseConvProfile models a dense direct/im2col convolution: one MAC per
// weight tap per output pixel; weights, input and output each cross DRAM
// once (ideal reuse — refetch is charged by the simulator when the weights
// overflow the scratchpad).
func DenseConvProfile(spec tensor.ConvSpec, n, h, w int) KernelProfile {
	spec = spec.Normalize()
	oh, ow := spec.OutDims(h, w)
	macs := spec.MACs(n, h, w)
	weightBytes := int64(spec.WeightShape().NumElements()) * wordBytes
	inBytes := int64(n*spec.InC*h*w) * wordBytes
	outBytes := int64(n*spec.OutC*oh*ow) * wordBytes
	return KernelProfile{
		Name:            "dense",
		Adds:            macs,
		Muls:            macs,
		SRAMAccesses:    2*macs + int64(n*spec.OutC*oh*ow),
		DRAMBytes:       weightBytes + inBytes + outBytes,
		StationaryBytes: weightBytes,
		WorkingSetBytes: weightBytes + int64(spec.InC*spec.KH)*int64(w)*wordBytes,
	}
}

// SparseConvProfile models CSR execution over pruned weights: one
// multiply-add per stored nonzero per output pixel, with 6-byte (4-byte
// value + 2-byte column) weight storage.
func SparseConvProfile(spec tensor.ConvSpec, n, h, w int, nnz int64) KernelProfile {
	spec = spec.Normalize()
	oh, ow := spec.OutDims(h, w)
	pixels := int64(n) * int64(oh) * int64(ow)
	weightBytes := nnz * (wordBytes + 2)
	inBytes := int64(n*spec.InC*h*w) * wordBytes
	outBytes := int64(n*spec.OutC*oh*ow) * wordBytes
	return KernelProfile{
		Name:            "sparse-csr",
		Adds:            nnz * pixels,
		Muls:            nnz * pixels,
		SRAMAccesses:    3*nnz*pixels + int64(n*spec.OutC*oh*ow), // value, index, activation
		DRAMBytes:       weightBytes + inBytes + outBytes,
		StationaryBytes: weightBytes,
		WorkingSetBytes: weightBytes + int64(spec.InC*spec.KH)*int64(w)*wordBytes,
	}
}

// FactorizedConvProfile models UCNN-style value-factorized execution (no
// pair merging): per pixel the per-row index sets are summed raw, then one
// multiply per distinct value. perPixel is the layer's factorized cost per
// output pixel, summed over groups: ipe.CountCodes(q).Factorized() of its
// quantized weights, or the PixelCost of the layer ipe.FactorizeConv
// builds from them, which is the same. Symbol ids are sized for the
// groups' summed reduction lengths.
func FactorizedConvProfile(spec tensor.ConvSpec, n, h, w int, perPixel ipe.Cost) KernelProfile {
	spec = spec.Normalize()
	oh, ow := spec.OutDims(h, w)
	pixels := int64(n) * int64(oh) * int64(ow)
	symB := symbolBytes(spec.InC * spec.KH * spec.KW)
	streamBytes := perPixel.StreamSymbols*symB + perPixel.Muls*(wordBytes+2) // per-term value+len headers
	inBytes := int64(n*spec.InC*h*w) * wordBytes
	outBytes := int64(n*spec.OutC*oh*ow) * wordBytes
	return KernelProfile{
		Name:            "factorized",
		Adds:            perPixel.Adds * pixels,
		Muls:            perPixel.Muls * pixels,
		SRAMAccesses:    (2*perPixel.Adds + 2*perPixel.Muls) * pixels,
		DRAMBytes:       streamBytes + inBytes + outBytes,
		StationaryBytes: streamBytes,
		WorkingSetBytes: streamBytes + int64(spec.InC*spec.KH)*int64(w)*wordBytes,
	}
}

// IPEConvProfile models execution of an index-pair-encoded convolution.
// The weights are replaced by the encoded instruction stream: each
// dictionary entry is two symbol ids, each term is a (value, length)
// header plus its symbol list. The dictionary partial sums occupy
// scratchpad words beyond the input tile.
func IPEConvProfile(layer *ipe.ConvLayer, n, h, w int) KernelProfile {
	spec := layer.Spec
	oh, ow := spec.OutDims(h, w)
	pixels := int64(n) * int64(oh) * int64(ow)
	var perPixel ipe.Cost
	var streamBytes, scratchWords int64
	for _, prog := range layer.Programs {
		c := prog.Cost()
		perPixel.Adds += c.Adds
		perPixel.Muls += c.Muls
		symB := symbolBytes(prog.NumSymbols())
		streamBytes += int64(prog.DictSize())*2*symB + // pair entries
			c.StreamSymbols*symB + c.Muls*(wordBytes+2) // term lists + headers
		if sw := c.ScratchWords; sw > scratchWords {
			scratchWords = sw
		}
	}
	inBytes := int64(n*spec.InC*h*w) * wordBytes
	outBytes := int64(n*spec.OutC*oh*ow) * wordBytes
	return KernelProfile{
		Name:            "ipe",
		Adds:            perPixel.Adds * pixels,
		Muls:            perPixel.Muls * pixels,
		SRAMAccesses:    (3*perPixel.Adds + 2*perPixel.Muls) * pixels, // 2 reads + 1 write per add
		DRAMBytes:       streamBytes + inBytes + outBytes,
		StationaryBytes: streamBytes,
		WorkingSetBytes: streamBytes + scratchWords*wordBytes,
	}
}

// WinogradConvProfile models Winograd F(2x2,3x3) dense execution: the cost
// argument carries the transform+elementwise op counts (see
// baseline.WinogradCost); weights cross DRAM in transformed form
// (16 coefficients per 3x3 filter).
func WinogradConvProfile(spec tensor.ConvSpec, n, h, w int, cost ipe.Cost) KernelProfile {
	spec = spec.Normalize()
	oh, ow := spec.OutDims(h, w)
	weightBytes := int64(spec.OutC) * int64(spec.InC) * 16 * wordBytes
	inBytes := int64(n*spec.InC*h*w) * wordBytes
	outBytes := int64(n*spec.OutC*oh*ow) * wordBytes
	return KernelProfile{
		Name:            "winograd",
		Adds:            cost.Adds,
		Muls:            cost.Muls,
		SRAMAccesses:    2 * (cost.Adds + cost.Muls),
		DRAMBytes:       weightBytes + inBytes + outBytes,
		StationaryBytes: weightBytes,
		WorkingSetBytes: weightBytes + int64(spec.InC*4)*int64(w)*wordBytes,
	}
}
