package graph

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

// The pass-pipeline golden tests: three small committed .igm graphs run
// through bn-fold → relu-fuse → dce pass by pass, with the structural
// outcome of every stage pinned and the numeric output checked against the
// unoptimized evaluation. Regenerate the graphs with
//
//	go test ./internal/graph -run TestPassPipeline -update

var update = flag.Bool("update", false, "rewrite the committed pass-pipeline graphs under testdata/")

func gaussT(r *tensor.RNG, scale float64, dims ...int) *tensor.Tensor {
	t := tensor.New(dims...)
	tensor.FillGaussian(t, r, scale)
	return t
}

// bnParams builds per-channel batch-norm parameters with strictly positive
// variance so the fold's rescaling is well-conditioned.
func bnParams(r *tensor.RNG, c int) (gamma, beta, mean, variance *tensor.Tensor) {
	gamma = gaussT(r, 0.5, c)
	beta = gaussT(r, 0.5, c)
	mean = gaussT(r, 0.5, c)
	variance = tensor.New(c)
	for i, v := range gaussT(r, 1, c).Data() {
		variance.Data()[i] = 0.2 + v*v
	}
	return
}

type pipelineCase struct {
	name  string
	build func() *Graph
	check func(t *testing.T, g *Graph)
}

func pipelineCases() []pipelineCase {
	return []pipelineCase{
		{
			// The canonical serving chain: the batch norm folds into the
			// conv and the ReLU fuses into it.
			name: "conv_bn_relu_pool",
			build: func() *Graph {
				r := tensor.NewRNG(41)
				g := New("in", 1, 3, 8, 8)
				spec := tensor.ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3,
					StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
				x := g.Conv(g.In, "conv1", spec,
					gaussT(r, 0.5, spec.WeightShape()...), gaussT(r, 0.5, 4))
				gamma, beta, mean, variance := bnParams(r, 4)
				x = g.BatchNorm(x, "bn1", gamma, beta, mean, variance, 1e-5)
				x = g.ReLU(x, "relu1")
				x = g.MaxPool(x, "pool1", PoolAttrs{KH: 2, KW: 2, StrideH: 2, StrideW: 2})
				g.SetOutput(x)
				return g
			},
			check: func(t *testing.T, g *Graph) {
				if n := countKind(g, OpBatchNorm); n != 0 {
					t.Errorf("bn-fold left %d batch-norm nodes", n)
				}
				if n := countKind(g, OpReLU); n != 0 {
					t.Errorf("relu-fuse left %d explicit ReLU nodes", n)
				}
				if n := len(g.Topo()); n != 3 {
					t.Errorf("got %d reachable nodes after dce, want 3 (input, conv, pool)", n)
				}
				if c := findNode(g, "conv1"); c == nil || !c.Attrs.FusedReLU {
					t.Errorf("conv1 should carry the fused ReLU")
				}
			},
		},
		{
			// A dense chain with a double ReLU: the first rectifier fuses
			// into the dense node, the second survives as its own node.
			name: "dense_relu",
			build: func() *Graph {
				r := tensor.NewRNG(42)
				g := New("in", 1, 6)
				x := g.Dense(g.In, "fc1", gaussT(r, 0.5, 5, 6), gaussT(r, 0.5, 5))
				x = g.ReLU(x, "relu_a")
				x = g.ReLU(x, "relu_b")
				x = g.Dense(x, "fc2", gaussT(r, 0.5, 3, 5), gaussT(r, 0.5, 3))
				g.SetOutput(x)
				return g
			},
			check: func(t *testing.T, g *Graph) {
				if n := countKind(g, OpReLU); n != 1 {
					t.Errorf("got %d explicit ReLU nodes, want 1 (relu_a fused, relu_b kept)", n)
				}
				if fc := findNode(g, "fc1"); fc == nil || !fc.Attrs.FusedReLU {
					t.Errorf("fc1 should carry the fused ReLU")
				}
				if findNode(g, "relu_b") == nil {
					t.Errorf("relu_b should survive as an explicit node")
				}
			},
		},
		{
			// A stem feeding two branches: the stem's ReLU still fuses (the
			// stem had a single consumer at fuse time), and so does each
			// branch's.
			name: "multi_consumer",
			build: func() *Graph {
				r := tensor.NewRNG(43)
				g := New("in", 1, 2, 8, 8)
				spec := func(in, out int) tensor.ConvSpec {
					return tensor.ConvSpec{InC: in, OutC: out, KH: 3, KW: 3,
						StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
				}
				s0 := spec(2, 3)
				stem := g.Conv(g.In, "stem", s0, gaussT(r, 0.5, s0.WeightShape()...), gaussT(r, 0.5, 3))
				stem = g.ReLU(stem, "stem_relu")
				var branches []*Node
				for _, name := range []string{"a", "b"} {
					sp := spec(3, 2)
					x := g.Conv(stem, "br_"+name, sp,
						gaussT(r, 0.5, sp.WeightShape()...), gaussT(r, 0.5, 2))
					x = g.ReLU(x, "br_"+name+"_relu")
					x = g.MaxPool(x, "br_"+name+"_pool", PoolAttrs{KH: 2, KW: 2, StrideH: 2, StrideW: 2})
					branches = append(branches, x)
				}
				g.SetOutput(g.Concat("cat", branches...))
				return g
			},
			check: func(t *testing.T, g *Graph) {
				if n := countKind(g, OpReLU); n != 0 {
					t.Errorf("got %d explicit ReLU nodes, want 0 (all single-consumer producers)", n)
				}
				for _, name := range []string{"br_a", "br_b"} {
					if br := findNode(g, name); br == nil || !br.Attrs.FusedReLU {
						t.Errorf("%s conv should carry the fused ReLU", name)
					}
				}
				stem := findNode(g, "stem")
				if stem == nil || !stem.Attrs.FusedReLU {
					t.Errorf("stem conv should carry the fused ReLU")
				}
			},
		},
	}
}

func findNode(g *Graph, name string) *Node {
	for _, n := range g.Topo() {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// TestPassPipelineGolden loads each committed graph, pins its byte-level
// serialization (Save∘ReadGraph must reproduce the file), runs the pass
// pipeline stage by stage, checks the optimized graph still computes the
// same function, and asserts the expected structure.
func TestPassPipelineGolden(t *testing.T) {
	for _, c := range pipelineCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", c.name+".igm")
			if *update {
				var buf bytes.Buffer
				if err := c.build().Save(&buf); err != nil {
					t.Fatalf("save: %v", err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatalf("write %s: %v", path, err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing committed graph (regenerate with -update): %v", err)
			}
			g, err := ReadGraph(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("ReadGraph: %v", err)
			}

			// Round-trip determinism: re-serializing the loaded graph must
			// reproduce the committed bytes exactly.
			var buf bytes.Buffer
			if err := g.Save(&buf); err != nil {
				t.Fatalf("re-save: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), raw) {
				t.Errorf("serialization round-trip diverged from the committed file")
			}

			in := tensor.New(g.In.OutShape...)
			tensor.FillGaussian(in, tensor.NewRNG(7), 1)
			before, err := Eval(g, in)
			if err != nil {
				t.Fatalf("eval before pipeline: %v", err)
			}
			want := append([]float32(nil), before.Data()...)

			for _, p := range []Pass{FoldBatchNorm{}, FuseReLU{}, EliminateDead{}} {
				if _, err := p.Run(g); err != nil {
					t.Fatalf("pass %s: %v", p.Name(), err)
				}
			}
			if err := g.InferShapes(); err != nil {
				t.Fatalf("InferShapes after pipeline: %v", err)
			}

			after, err := Eval(g, in)
			if err != nil {
				t.Fatalf("eval after pipeline: %v", err)
			}
			if len(after.Data()) != len(want) {
				t.Fatalf("output size changed: %d -> %d", len(want), len(after.Data()))
			}
			for i, got := range after.Data() {
				// bn-fold rescales weights, so outputs match only up to
				// float rounding of the refactored arithmetic.
				d := float64(got - want[i])
				if d < 0 {
					d = -d
				}
				m := float64(want[i])
				if m < 0 {
					m = -m
				}
				if d > 1e-4+1e-4*m {
					t.Fatalf("output[%d] diverged after pipeline: got %v, want %v", i, got, want[i])
				}
			}

			c.check(t, g)
		})
	}
}
