package graph

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Eval executes the graph with the reference tensor kernels and returns the
// output. It is the functional oracle: every optimization pass and every
// specialized runtime implementation is verified against it.
func Eval(g *Graph, input *tensor.Tensor) (*tensor.Tensor, error) {
	if !input.Shape().Equal(g.In.OutShape) {
		return nil, fmt.Errorf("graph: input shape %v != declared %v", input.Shape(), g.In.OutShape)
	}
	vals := make(map[*Node]*tensor.Tensor)
	vals[g.In] = input
	for _, n := range g.Topo() {
		if n == g.In {
			continue
		}
		out, err := EvalNode(n, inputsOf(n, vals))
		if err != nil {
			return nil, fmt.Errorf("graph: evaluating %s: %w", n, err)
		}
		vals[n] = out
	}
	return vals[g.Out], nil
}

func inputsOf(n *Node, vals map[*Node]*tensor.Tensor) []*tensor.Tensor {
	ins := make([]*tensor.Tensor, len(n.Inputs))
	for i, in := range n.Inputs {
		ins[i] = vals[in]
	}
	return ins
}

// EvalNode executes a single node given its input tensors, honoring the
// FusedReLU attribute.
func EvalNode(n *Node, ins []*tensor.Tensor) (*tensor.Tensor, error) {
	var out *tensor.Tensor
	switch n.Kind {
	case OpConst:
		out = n.Value
	case OpConv:
		out = tensor.Conv2D(ins[0], n.Param("weight"), n.Param("bias"), n.Attrs.Conv)
	case OpDense:
		out = tensor.Dense(ins[0], n.Param("weight"), n.Param("bias"))
	case OpBatchNorm:
		out = tensor.BatchNorm(ins[0], n.Param("gamma"), n.Param("beta"),
			n.Param("mean"), n.Param("var"), n.Attrs.Eps)
	case OpReLU:
		out = tensor.ReLU(ins[0])
	case OpMaxPool:
		p := n.Attrs.Pool
		out = tensor.MaxPool2D(ins[0], p.KH, p.KW, p.StrideH, p.StrideW, p.PadH, p.PadW)
	case OpAvgPool:
		p := n.Attrs.Pool
		out = tensor.AvgPool2D(ins[0], p.KH, p.KW, p.StrideH, p.StrideW, p.PadH, p.PadW)
	case OpGlobalAvgPool:
		out = tensor.GlobalAvgPool2D(ins[0])
	case OpAdd:
		out = tensor.AddTensors(ins[0], ins[1])
	case OpFlatten:
		s := ins[0].Shape()
		out = ins[0].Reshape(s[0], s.NumElements()/s[0])
	case OpSoftmax:
		out = tensor.Softmax(ins[0])
	case OpConcat:
		out = concatChannels(ins)
	default:
		return nil, fmt.Errorf("unsupported op kind %v", n.Kind)
	}
	if n.Attrs.FusedReLU {
		out = tensor.ReLU(out)
	}
	return out, nil
}

// EvalNodeIntoPar executes a single node writing the result into a
// preallocated destination tensor of the node's output shape, honoring the
// FusedReLU attribute. It is the destination-passing counterpart of
// EvalNode: no output (or intermediate) tensor is allocated, so a planned
// runtime can point dst straight into its activation arena. dst must not
// alias any input (the memory planner guarantees this for planned buffers).
// OpInput and OpConst nodes produce no computation and are rejected. The
// heavy operators (conv, dense) shard on the given parallelism context (nil
// par runs serially); everything else runs serially. Results are
// bit-identical for any shard count.
func EvalNodeIntoPar(dst *tensor.Tensor, n *Node, ins []*tensor.Tensor, par *tensor.Par) error {
	// Conv and dense count themselves inside their tensor kernels; the
	// remaining operators are the generic walker's.
	if n.Kind != OpConv && n.Kind != OpDense {
		metrics.Count(metrics.KernelGeneric)
	}
	switch n.Kind {
	case OpConv:
		tensor.Conv2DIntoPar(dst, ins[0], n.Param("weight"), n.Param("bias"), n.Attrs.Conv, par)
	case OpDense:
		tensor.DenseIntoPar(dst, ins[0], n.Param("weight"), n.Param("bias"), par)
	case OpBatchNorm:
		tensor.BatchNormInto(dst, ins[0], n.Param("gamma"), n.Param("beta"),
			n.Param("mean"), n.Param("var"), n.Attrs.Eps)
	case OpReLU:
		tensor.ReLUInto(dst, ins[0])
	case OpMaxPool:
		p := n.Attrs.Pool
		tensor.MaxPool2DInto(dst, ins[0], p.KH, p.KW, p.StrideH, p.StrideW, p.PadH, p.PadW)
	case OpAvgPool:
		p := n.Attrs.Pool
		tensor.AvgPool2DInto(dst, ins[0], p.KH, p.KW, p.StrideH, p.StrideW, p.PadH, p.PadW)
	case OpGlobalAvgPool:
		tensor.GlobalAvgPool2DInto(dst, ins[0])
	case OpAdd:
		tensor.AddInto(dst, ins[0], ins[1])
	case OpFlatten:
		copy(dst.Data(), ins[0].Data())
	case OpSoftmax:
		tensor.SoftmaxInto(dst, ins[0])
	case OpConcat:
		concatChannelsInto(dst, ins)
	default:
		return fmt.Errorf("unsupported op kind %v", n.Kind)
	}
	if n.Attrs.FusedReLU {
		tensor.ReLUInto(dst, dst)
	}
	return nil
}

// concatChannels concatenates NCHW tensors along the channel dimension.
func concatChannels(ins []*tensor.Tensor) *tensor.Tensor {
	n, h, w := ins[0].Dim(0), ins[0].Dim(2), ins[0].Dim(3)
	chans := 0
	for _, t := range ins {
		chans += t.Dim(1)
	}
	out := tensor.New(n, chans, h, w)
	concatChannelsInto(out, ins)
	return out
}

// concatChannelsInto concatenates NCHW tensors along the channel dimension
// into a preallocated destination.
func concatChannelsInto(out *tensor.Tensor, ins []*tensor.Tensor) {
	n, h, w := ins[0].Dim(0), ins[0].Dim(2), ins[0].Dim(3)
	chans := 0
	for _, t := range ins {
		chans += t.Dim(1)
	}
	if out.NumElements() != n*chans*h*w {
		panic(fmt.Sprintf("graph: concat dst %v != [%d %d %d %d]", out.Shape(), n, chans, h, w))
	}
	od := out.Data()
	hw := h * w
	for b := 0; b < n; b++ {
		cOff := 0
		for _, t := range ins {
			c := t.Dim(1)
			src := t.Data()[b*c*hw : (b+1)*c*hw]
			copy(od[(b*chans+cOff)*hw:], src)
			cOff += c
		}
	}
}
