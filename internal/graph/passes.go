package graph

import (
	"fmt"

	"repro/internal/tensor"
)

// Pass is one graph-to-graph rewrite. Run reports whether it changed the
// graph so the driver can iterate to a fixpoint.
type Pass interface {
	Name() string
	Run(g *Graph) (bool, error)
}

// Optimize runs the standard INSPIRE pre-lowering pipeline to a fixpoint:
// constant folding, batch-norm folding, ReLU fusion, common-subexpression
// elimination and dead-code elimination. Shapes are re-inferred afterwards.
func Optimize(g *Graph) error {
	passes := []Pass{FoldConstants{}, FoldBatchNorm{}, FuseReLU{}, EliminateCommon{}, EliminateDead{}}
	for iter := 0; ; iter++ {
		if iter > 100 {
			return fmt.Errorf("graph: optimization did not reach a fixpoint")
		}
		changed := false
		for _, p := range passes {
			c, err := p.Run(g)
			if err != nil {
				return fmt.Errorf("graph: pass %s: %w", p.Name(), err)
			}
			changed = changed || c
		}
		if !changed {
			break
		}
	}
	return g.InferShapes()
}

// replaceUses rewires every use of old (as an input or as the graph output)
// to point at new.
func replaceUses(g *Graph, old, new *Node) {
	for _, n := range g.Nodes {
		for i, in := range n.Inputs {
			if in == old {
				n.Inputs[i] = new
			}
		}
	}
	if g.Out == old {
		g.Out = new
	}
}

// EliminateDead removes nodes that do not reach the graph output.
type EliminateDead struct{}

// Name implements Pass.
func (EliminateDead) Name() string { return "dce" }

// Run implements Pass.
func (EliminateDead) Run(g *Graph) (bool, error) {
	live := make(map[*Node]bool)
	for _, n := range g.Topo() {
		live[n] = true
	}
	live[g.In] = true
	if len(live) == len(g.Nodes) {
		return false, nil
	}
	kept := g.Nodes[:0]
	for _, n := range g.Nodes {
		if live[n] {
			kept = append(kept, n)
		}
	}
	changed := len(kept) != len(g.Nodes)
	g.Nodes = kept
	return changed, nil
}

// FoldConstants evaluates nodes whose inputs are all constants and replaces
// them with OpConst nodes.
type FoldConstants struct{}

// Name implements Pass.
func (FoldConstants) Name() string { return "const-fold" }

// Run implements Pass.
func (FoldConstants) Run(g *Graph) (bool, error) {
	changed := false
	for _, n := range g.Topo() {
		if n.Kind == OpConst || n.Kind == OpInput || len(n.Inputs) == 0 {
			continue
		}
		allConst := true
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for i, in := range n.Inputs {
			if in.Kind != OpConst {
				allConst = false
				break
			}
			ins[i] = in.Value
		}
		if !allConst {
			continue
		}
		v, err := EvalNode(n, ins)
		if err != nil {
			return false, err
		}
		folded := g.Const(n.Name+".folded", v)
		replaceUses(g, n, folded)
		changed = true
	}
	return changed, nil
}

// FoldBatchNorm folds an inference batch normalization into the preceding
// convolution's weights and bias when the convolution has no other
// consumer: w'[oc,...] = w[oc,...]·s[oc], b'[oc] = (b[oc]-mean[oc])·s[oc] +
// beta[oc] with s = gamma/sqrt(var+eps).
type FoldBatchNorm struct{}

// Name implements Pass.
func (FoldBatchNorm) Name() string { return "bn-fold" }

// Run implements Pass.
func (FoldBatchNorm) Run(g *Graph) (bool, error) {
	cons := g.Consumers()
	changed := false
	for _, n := range g.Topo() {
		if n.Kind != OpBatchNorm {
			continue
		}
		conv := n.Inputs[0]
		if conv.Kind != OpConv || len(cons[conv]) != 1 {
			continue
		}
		w := conv.Param("weight")
		if w == nil {
			continue
		}
		gamma, beta := n.Param("gamma").Data(), n.Param("beta").Data()
		mean, variance := n.Param("mean").Data(), n.Param("var").Data()
		eps := n.Attrs.Eps
		oc := w.Dim(0)
		perOC := w.NumElements() / oc
		nw := w.Clone()
		nb := tensor.New(oc)
		var oldBias []float32
		if b := conv.Param("bias"); b != nil {
			oldBias = b.Data()
		}
		for c := 0; c < oc; c++ {
			s := gamma[c] / float32(sqrt64(float64(variance[c]+eps)))
			wd := nw.Data()[c*perOC : (c+1)*perOC]
			for i := range wd {
				wd[i] *= s
			}
			var b0 float32
			if oldBias != nil {
				b0 = oldBias[c]
			}
			nb.Data()[c] = (b0-mean[c])*s + beta[c]
		}
		conv.setParam("weight", nw)
		conv.setParam("bias", nb)
		replaceUses(g, n, conv)
		changed = true
	}
	return changed, nil
}

func sqrt64(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 30; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

// FuseReLU absorbs a ReLU into its producing Conv, Dense or Add node when
// the producer has no other consumer, eliminating one intermediate tensor.
type FuseReLU struct{}

// Name implements Pass.
func (FuseReLU) Name() string { return "relu-fuse" }

// Run implements Pass.
func (FuseReLU) Run(g *Graph) (bool, error) {
	cons := g.Consumers()
	changed := false
	for _, n := range g.Topo() {
		if n.Kind != OpReLU {
			continue
		}
		p := n.Inputs[0]
		switch p.Kind {
		case OpConv, OpDense, OpAdd:
		default:
			continue
		}
		if len(cons[p]) != 1 || p.Attrs.FusedReLU {
			continue
		}
		p.Attrs.FusedReLU = true
		replaceUses(g, n, p)
		changed = true
	}
	return changed, nil
}

// EliminateCommon merges structurally identical nodes: same kind, same
// attributes, identical input nodes and identical parameter tensors (by
// pointer). Classic CSE over the DAG.
type EliminateCommon struct{}

// Name implements Pass.
func (EliminateCommon) Name() string { return "cse" }

// Run implements Pass.
func (EliminateCommon) Run(g *Graph) (bool, error) {
	type key struct {
		kind  OpKind
		attrs Attrs
		sig   string
	}
	seen := make(map[key]*Node)
	changed := false
	for _, n := range g.Topo() {
		if n.Kind == OpInput || n.Kind == OpConst {
			continue
		}
		sig := ""
		for _, in := range n.Inputs {
			sig += fmt.Sprintf("i%d;", in.ID)
		}
		for _, role := range []string{"weight", "bias", "gamma", "beta", "mean", "var"} {
			if p := n.Param(role); p != nil {
				sig += fmt.Sprintf("%s%p;", role, p)
			}
		}
		k := key{n.Kind, n.Attrs, sig}
		if prev, ok := seen[k]; ok {
			replaceUses(g, n, prev)
			changed = true
			continue
		}
		seen[k] = n
	}
	return changed, nil
}
