package tensor

// Registration shims for the conformance harness (internal/conformance):
// every way this package can compute a convolution or a fully connected
// layer, enumerated so the differential driver discovers new kernels
// without being edited. Variants within one ConvImpl/DenseImpl family are
// required to be bit-identical to each other (they share the same
// per-element accumulation order); different families only agree up to
// float rounding.

// ConvImpl is one registered implementation family of 2-D convolution.
// Every Variant of a family must produce bit-identical outputs.
type ConvImpl struct {
	Family   string
	Variants []ConvVariant
}

// ConvVariant is one execution path of a convolution family. F computes the
// convolution of in with weight/bias under spec into dst (full output
// shape). Par-using variants are exercised at several shard counts by the
// harness; par is never nil.
type ConvVariant struct {
	Name string
	// UsesPar reports whether F's result path runs through the sharded
	// kernel (so the harness re-runs it per shard count).
	UsesPar bool
	F       func(dst, in, weight, bias *Tensor, spec ConvSpec, par *Par)
}

// ConvImpls enumerates this package's convolution families: the direct
// 7-loop kernel (allocating reference and the sharded destination-passing
// entry point — one family, bit-identical by construction) and the
// im2col+GEMM lowering (its own family; different accumulation order).
func ConvImpls() []ConvImpl {
	return []ConvImpl{
		{
			Family: "tensor-direct",
			Variants: []ConvVariant{
				{Name: "alloc", F: func(dst, in, w, b *Tensor, spec ConvSpec, par *Par) {
					copy(dst.Data(), Conv2D(in, w, b, spec).Data())
				}},
				{Name: "into-par", UsesPar: true, F: func(dst, in, w, b *Tensor, spec ConvSpec, par *Par) {
					Conv2DIntoPar(dst, in, w, b, spec, par)
				}},
			},
		},
		{
			Family: "tensor-im2col",
			Variants: []ConvVariant{
				{Name: "alloc", F: func(dst, in, w, b *Tensor, spec ConvSpec, par *Par) {
					copy(dst.Data(), Conv2DIm2col(in, w, b, spec).Data())
				}},
			},
		},
	}
}

// DenseImpl is one registered implementation family of the fully connected
// layer, mirroring ConvImpl.
type DenseImpl struct {
	Family   string
	Variants []DenseVariant
}

// DenseVariant is one execution path of a dense family. F computes
// y = x·Wᵀ + b for the [n, k] input into the [n, m] dst.
type DenseVariant struct {
	Name    string
	UsesPar bool
	F       func(dst, in, weight, bias *Tensor, par *Par)
}

// DenseImpls enumerates the dense families: the per-output dot-product
// kernel (allocating reference and sharded entry point, one family) and the
// GEMM lowering (its own family: the cache-blocked Gemm on the materialized
// transpose).
func DenseImpls() []DenseImpl {
	return []DenseImpl{
		{
			Family: "tensor-dense",
			Variants: []DenseVariant{
				{Name: "alloc", F: func(dst, in, w, b *Tensor, par *Par) {
					copy(dst.Data(), Dense(in, w, b).Data())
				}},
				{Name: "into-par", UsesPar: true, F: func(dst, in, w, b *Tensor, par *Par) {
					DenseIntoPar(dst, in, w, b, par)
				}},
			},
		},
		{
			Family: "tensor-gemm",
			Variants: []DenseVariant{
				{Name: "naive", F: func(dst, in, w, b *Tensor, par *Par) {
					denseViaGemm(dst, in, w, b)
				}},
			},
		},
	}
}

// denseViaGemm computes the dense layer as the naive Gemm x·Wᵀ on the
// materialized transpose followed by a bias add.
func denseViaGemm(dst, in, w, b *Tensor) {
	n, k := in.Dim(0), in.Dim(1)
	m := w.Dim(0)
	wt := Transpose(w) // [k, m]
	Gemm(in.Data(), wt.Data(), dst.Data(), n, k, m)
	if b != nil {
		bd, od := b.Data(), dst.Data()
		for r := 0; r < n; r++ {
			for i := 0; i < m; i++ {
				od[r*m+i] += bd[i]
			}
		}
	}
}
