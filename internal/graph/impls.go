package graph

import "fmt"

// Clone returns a deep copy of the graph: fresh nodes with re-linked
// inputs, deep-copied parameter and constant tensors, and the same IDs.
// Optimization passes (and runtime.Compile, which runs them) mutate graphs
// in place, so callers that compile one graph several ways — the
// conformance driver compiles one generated graph once per forced
// implementation — clone it per compilation.
func (g *Graph) Clone() *Graph {
	c := &Graph{Nodes: make([]*Node, len(g.Nodes)), nextID: g.nextID}
	old2new := make(map[*Node]*Node, len(g.Nodes))
	for i, n := range g.Nodes {
		nn := &Node{
			ID:       n.ID,
			Name:     n.Name,
			Kind:     n.Kind,
			Attrs:    n.Attrs,
			OutShape: n.OutShape.Clone(),
		}
		if n.Value != nil {
			nn.Value = n.Value.Clone()
		}
		for role, t := range n.Params {
			nn.setParam(role, t.Clone())
		}
		c.Nodes[i] = nn
		old2new[n] = nn
	}
	for i, n := range g.Nodes {
		for _, in := range n.Inputs {
			nin, ok := old2new[in]
			if !ok {
				panic(fmt.Sprintf("graph: Clone: %s has input outside the node list", n))
			}
			c.Nodes[i].Inputs = append(c.Nodes[i].Inputs, nin)
		}
	}
	c.In = old2new[g.In]
	c.Out = old2new[g.Out]
	return c
}
