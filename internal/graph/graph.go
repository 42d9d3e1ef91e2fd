// Package graph provides the computational-graph intermediate
// representation of the INSPIRE compiler stack: typed operator nodes, shape
// inference, a reference executor, and the optimization passes (constant
// folding, batch-norm folding, ReLU fusion, dead-code and common-subgraph
// elimination) that run before per-operator lowering and encoding.
package graph

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// OpKind enumerates the operator types of the IR.
type OpKind int

// Operator kinds. Shapes below use NCHW activations.
const (
	// OpInput is the graph input placeholder.
	OpInput OpKind = iota
	// OpConst produces a constant tensor (stored in Node.Value).
	OpConst
	// OpConv is 2-D convolution; attrs carry the tensor.ConvSpec.
	OpConv
	// OpDense is a fully connected layer on [n, k] inputs.
	OpDense
	// OpBatchNorm is inference-mode batch normalization.
	OpBatchNorm
	// OpReLU is the rectifier.
	OpReLU
	// OpMaxPool is 2-D max pooling.
	OpMaxPool
	// OpAvgPool is 2-D average pooling.
	OpAvgPool
	// OpGlobalAvgPool reduces spatial dims to 1x1.
	OpGlobalAvgPool
	// OpAdd is elementwise addition of two same-shape inputs.
	OpAdd
	// OpFlatten reshapes [n, c, h, w] to [n, c*h*w].
	OpFlatten
	// OpSoftmax applies softmax over the last dim of a rank-2 tensor.
	OpSoftmax
	// OpConcat concatenates rank-4 inputs along the channel dimension.
	OpConcat
)

var opNames = map[OpKind]string{
	OpInput: "Input", OpConst: "Const", OpConv: "Conv2D", OpDense: "Dense",
	OpBatchNorm: "BatchNorm", OpReLU: "ReLU", OpMaxPool: "MaxPool",
	OpAvgPool: "AvgPool", OpGlobalAvgPool: "GlobalAvgPool", OpAdd: "Add",
	OpFlatten: "Flatten", OpSoftmax: "Softmax", OpConcat: "Concat",
}

// String returns the operator's conventional name.
func (k OpKind) String() string {
	if n, ok := opNames[k]; ok {
		return n
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// PoolAttrs parameterizes max/avg pooling.
type PoolAttrs struct {
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
}

// Attrs carries the operator-specific parameters of a node. Only the fields
// relevant to the node's kind are meaningful.
type Attrs struct {
	Conv      tensor.ConvSpec
	Pool      PoolAttrs
	Eps       float32 // batch norm epsilon
	FusedReLU bool    // set by the fusion pass on Conv/Dense/Add producers
}

// Node is one operator instance in a graph.
type Node struct {
	ID     int
	Name   string
	Kind   OpKind
	Inputs []*Node
	Attrs  Attrs
	// Params holds learned tensors by role: "weight", "bias", "gamma",
	// "beta", "mean", "var".
	Params map[string]*tensor.Tensor
	// Value is the payload of OpConst nodes.
	Value *tensor.Tensor
	// OutShape is filled by InferShapes.
	OutShape tensor.Shape
}

// Param returns the named parameter tensor or nil.
func (n *Node) Param(role string) *tensor.Tensor {
	if n.Params == nil {
		return nil
	}
	return n.Params[role]
}

func (n *Node) setParam(role string, t *tensor.Tensor) {
	if t == nil {
		return
	}
	if n.Params == nil {
		n.Params = make(map[string]*tensor.Tensor)
	}
	n.Params[role] = t
}

// String identifies the node for error messages.
func (n *Node) String() string { return fmt.Sprintf("%s#%d(%s)", n.Kind, n.ID, n.Name) }

// Graph is a single-input single-output computational graph.
type Graph struct {
	Nodes  []*Node
	In     *Node
	Out    *Node
	nextID int
}

// New creates a graph with one input node of the given shape.
func New(name string, inputShape ...int) *Graph {
	g := &Graph{}
	g.In = g.add(&Node{Name: name, Kind: OpInput, OutShape: tensor.Shape(inputShape).Clone()})
	g.Out = g.In
	return g
}

func (g *Graph) add(n *Node) *Node {
	n.ID = g.nextID
	g.nextID++
	g.Nodes = append(g.Nodes, n)
	return n
}

// Const adds a constant node.
func (g *Graph) Const(name string, v *tensor.Tensor) *Node {
	return g.add(&Node{Name: name, Kind: OpConst, Value: v})
}

// Conv adds a convolution node consuming x.
func (g *Graph) Conv(x *Node, name string, spec tensor.ConvSpec, w, b *tensor.Tensor) *Node {
	n := &Node{Name: name, Kind: OpConv, Inputs: []*Node{x}, Attrs: Attrs{Conv: spec.Normalize()}}
	n.setParam("weight", w)
	n.setParam("bias", b)
	return g.add(n)
}

// Dense adds a fully connected node consuming x.
func (g *Graph) Dense(x *Node, name string, w, b *tensor.Tensor) *Node {
	n := &Node{Name: name, Kind: OpDense, Inputs: []*Node{x}}
	n.setParam("weight", w)
	n.setParam("bias", b)
	return g.add(n)
}

// BatchNorm adds an inference batch-normalization node.
func (g *Graph) BatchNorm(x *Node, name string, gamma, beta, mean, variance *tensor.Tensor, eps float32) *Node {
	n := &Node{Name: name, Kind: OpBatchNorm, Inputs: []*Node{x}, Attrs: Attrs{Eps: eps}}
	n.setParam("gamma", gamma)
	n.setParam("beta", beta)
	n.setParam("mean", mean)
	n.setParam("var", variance)
	return g.add(n)
}

// ReLU adds a rectifier node.
func (g *Graph) ReLU(x *Node, name string) *Node {
	return g.add(&Node{Name: name, Kind: OpReLU, Inputs: []*Node{x}})
}

// MaxPool adds a max pooling node.
func (g *Graph) MaxPool(x *Node, name string, p PoolAttrs) *Node {
	return g.add(&Node{Name: name, Kind: OpMaxPool, Inputs: []*Node{x}, Attrs: Attrs{Pool: p}})
}

// AvgPool adds an average pooling node.
func (g *Graph) AvgPool(x *Node, name string, p PoolAttrs) *Node {
	return g.add(&Node{Name: name, Kind: OpAvgPool, Inputs: []*Node{x}, Attrs: Attrs{Pool: p}})
}

// GlobalAvgPool adds a global average pooling node.
func (g *Graph) GlobalAvgPool(x *Node, name string) *Node {
	return g.add(&Node{Name: name, Kind: OpGlobalAvgPool, Inputs: []*Node{x}})
}

// Add adds an elementwise addition node.
func (g *Graph) Add(a, b *Node, name string) *Node {
	return g.add(&Node{Name: name, Kind: OpAdd, Inputs: []*Node{a, b}})
}

// Flatten adds a flatten node.
func (g *Graph) Flatten(x *Node, name string) *Node {
	return g.add(&Node{Name: name, Kind: OpFlatten, Inputs: []*Node{x}})
}

// Softmax adds a softmax node.
func (g *Graph) Softmax(x *Node, name string) *Node {
	return g.add(&Node{Name: name, Kind: OpSoftmax, Inputs: []*Node{x}})
}

// Concat adds a channel-dimension concatenation node over two or more
// rank-4 inputs.
func (g *Graph) Concat(name string, xs ...*Node) *Node {
	if len(xs) < 2 {
		panic("graph: Concat needs at least two inputs")
	}
	return g.add(&Node{Name: name, Kind: OpConcat, Inputs: xs})
}

// SetOutput marks n as the graph output.
func (g *Graph) SetOutput(n *Node) { g.Out = n }

// Topo returns the nodes in a deterministic topological order ending at the
// output. Nodes not reaching the output are excluded.
func (g *Graph) Topo() []*Node {
	var order []*Node
	state := make(map[*Node]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(n *Node)
	visit = func(n *Node) {
		if state[n] == 2 {
			return
		}
		if state[n] == 1 {
			panic(fmt.Sprintf("graph: cycle through %s", n))
		}
		state[n] = 1
		for _, in := range n.Inputs {
			visit(in)
		}
		state[n] = 2
		order = append(order, n)
	}
	visit(g.Out)
	return order
}

// Consumers returns, for each node, the nodes that consume its output,
// considering only nodes reachable from the graph output.
func (g *Graph) Consumers() map[*Node][]*Node {
	cons := make(map[*Node][]*Node)
	for _, n := range g.Topo() {
		for _, in := range n.Inputs {
			cons[in] = append(cons[in], n)
		}
	}
	return cons
}

// InferShapes computes OutShape for every node reachable from the output.
func (g *Graph) InferShapes() error {
	for _, n := range g.Topo() {
		s, err := inferShape(n)
		if err != nil {
			return fmt.Errorf("graph: %s: %w", n, err)
		}
		n.OutShape = s
	}
	return nil
}

func inferShape(n *Node) (tensor.Shape, error) {
	// Validate arity before touching n.Inputs: deserialized graphs can
	// carry any input list, and shape inference must reject them with an
	// error, not an index panic.
	switch {
	case n.Kind == OpInput || n.Kind == OpConst:
		if len(n.Inputs) != 0 {
			return nil, fmt.Errorf("%v takes no inputs, has %d", n.Kind, len(n.Inputs))
		}
	case n.Kind == OpAdd:
		if len(n.Inputs) != 2 {
			return nil, fmt.Errorf("add takes 2 inputs, has %d", len(n.Inputs))
		}
	case n.Kind == OpConcat:
		if len(n.Inputs) == 0 {
			return nil, fmt.Errorf("concat needs at least one input")
		}
	default:
		if len(n.Inputs) != 1 {
			return nil, fmt.Errorf("%v takes 1 input, has %d", n.Kind, len(n.Inputs))
		}
	}
	in := func(i int) tensor.Shape { return n.Inputs[i].OutShape }
	switch n.Kind {
	case OpInput:
		if !n.OutShape.Valid() {
			return nil, fmt.Errorf("input has invalid shape %v", n.OutShape)
		}
		return n.OutShape, nil
	case OpConst:
		if n.Value == nil {
			return nil, fmt.Errorf("const has no value")
		}
		return n.Value.Shape(), nil
	case OpConv:
		s := in(0)
		if s.Rank() != 4 {
			return nil, fmt.Errorf("conv input must be rank 4, got %v", s)
		}
		spec := n.Attrs.Conv
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if s[1] != spec.InC {
			return nil, fmt.Errorf("conv input channels %d != spec.InC %d", s[1], spec.InC)
		}
		if w := n.Param("weight"); w == nil || !w.Shape().Equal(spec.WeightShape()) {
			return nil, fmt.Errorf("conv needs a %v weight", spec.WeightShape())
		}
		if err := checkBias(n, spec.OutC); err != nil {
			return nil, err
		}
		oh, ow := spec.OutDims(s[2], s[3])
		if oh <= 0 || ow <= 0 {
			return nil, fmt.Errorf("conv output is empty (%dx%d)", oh, ow)
		}
		return tensor.Shape{s[0], spec.OutC, oh, ow}, nil
	case OpDense:
		s := in(0)
		if s.Rank() != 2 {
			return nil, fmt.Errorf("dense input must be rank 2, got %v", s)
		}
		w := n.Param("weight")
		if w == nil || w.Shape().Rank() != 2 {
			return nil, fmt.Errorf("dense needs [m,k] weight")
		}
		if w.Dim(1) != s[1] {
			return nil, fmt.Errorf("dense weight k %d != input width %d", w.Dim(1), s[1])
		}
		if err := checkBias(n, w.Dim(0)); err != nil {
			return nil, err
		}
		return tensor.Shape{s[0], w.Dim(0)}, nil
	case OpBatchNorm, OpReLU:
		return in(0), nil
	case OpMaxPool, OpAvgPool:
		s := in(0)
		if s.Rank() != 4 {
			return nil, fmt.Errorf("pool input must be rank 4, got %v", s)
		}
		p := n.Attrs.Pool
		if p.KH <= 0 || p.KW <= 0 || p.StrideH <= 0 || p.StrideW <= 0 || p.PadH < 0 || p.PadW < 0 {
			return nil, fmt.Errorf("invalid pool attrs %+v", p)
		}
		oh := (s[2]+2*p.PadH-p.KH)/p.StrideH + 1
		ow := (s[3]+2*p.PadW-p.KW)/p.StrideW + 1
		if oh <= 0 || ow <= 0 {
			return nil, fmt.Errorf("pool output is empty (%dx%d)", oh, ow)
		}
		return tensor.Shape{s[0], s[1], oh, ow}, nil
	case OpGlobalAvgPool:
		s := in(0)
		if s.Rank() != 4 {
			return nil, fmt.Errorf("global pool input must be rank 4, got %v", s)
		}
		return tensor.Shape{s[0], s[1], 1, 1}, nil
	case OpAdd:
		a, b := in(0), in(1)
		if !a.Equal(b) {
			return nil, fmt.Errorf("add operands differ: %v vs %v", a, b)
		}
		return a, nil
	case OpFlatten:
		s := in(0)
		if s.Rank() < 1 {
			return nil, fmt.Errorf("flatten input must have a batch dim, got %v", s)
		}
		return tensor.Shape{s[0], s.NumElements() / s[0]}, nil
	case OpSoftmax:
		s := in(0)
		if s.Rank() != 2 {
			return nil, fmt.Errorf("softmax input must be rank 2, got %v", s)
		}
		return s, nil
	case OpConcat:
		first := in(0)
		if first.Rank() != 4 {
			return nil, fmt.Errorf("concat inputs must be rank 4, got %v", first)
		}
		chans := 0
		for i := range n.Inputs {
			s := in(i)
			if s.Rank() != 4 || s[0] != first[0] || s[2] != first[2] || s[3] != first[3] {
				return nil, fmt.Errorf("concat operand %d shape %v incompatible with %v", i, s, first)
			}
			chans += s[1]
		}
		return tensor.Shape{first[0], chans, first[2], first[3]}, nil
	default:
		return nil, fmt.Errorf("unknown op kind %d", n.Kind)
	}
}

// checkBias rejects a bias whose length is not the node's output count
// (channels for a conv, units for a dense layer).
func checkBias(n *Node, outputs int) error {
	if b := n.Param("bias"); b != nil && b.NumElements() != outputs {
		return fmt.Errorf("bias has %d elements, want %d", b.NumElements(), outputs)
	}
	return nil
}

// NumParams returns the total learned parameter count of the graph.
func (g *Graph) NumParams() int64 {
	var total int64
	for _, n := range g.Topo() {
		roles := make([]string, 0, len(n.Params))
		for r := range n.Params {
			roles = append(roles, r)
		}
		sort.Strings(roles)
		for _, r := range roles {
			total += int64(n.Params[r].NumElements())
		}
	}
	return total
}

// MACs returns the total multiply-accumulate count of all conv and dense
// nodes for the graph's inferred shapes. InferShapes must have run.
func (g *Graph) MACs() int64 {
	var total int64
	for _, n := range g.Topo() {
		switch n.Kind {
		case OpConv:
			s := n.Inputs[0].OutShape
			total += n.Attrs.Conv.MACs(s[0], s[2], s[3])
		case OpDense:
			w := n.Param("weight")
			total += int64(n.Inputs[0].OutShape[0]) * int64(w.Dim(0)) * int64(w.Dim(1))
		}
	}
	return total
}
