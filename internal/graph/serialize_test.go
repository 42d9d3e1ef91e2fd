package graph

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func TestGraphWriteReadRoundTrip(t *testing.T) {
	g, in := tinyConvGraph(30)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	want, err := Eval(g, in)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Eval(back, in)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(got, want) != 0 {
		t.Fatalf("round-tripped graph diverges: %v", tensor.MaxAbsDiff(got, want))
	}
}

func TestGraphRoundTripPreservesStructure(t *testing.T) {
	g, _ := tinyConvGraph(31)
	if err := Optimize(g); err != nil { // exercise FusedReLU serialization
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := g.Topo()
	gotOrder := back.Topo()
	if len(wantOrder) != len(gotOrder) {
		t.Fatalf("node counts differ: %d vs %d", len(wantOrder), len(gotOrder))
	}
	for i := range wantOrder {
		a, b := wantOrder[i], gotOrder[i]
		if a.Kind != b.Kind || a.Name != b.Name || a.Attrs.FusedReLU != b.Attrs.FusedReLU {
			t.Fatalf("node %d differs: %s vs %s", i, a, b)
		}
		if !a.OutShape.Equal(b.OutShape) {
			t.Fatalf("node %d shape differs: %v vs %v", i, a.OutShape, b.OutShape)
		}
	}
}

func TestGraphSerializeDeterministic(t *testing.T) {
	g, _ := tinyConvGraph(32)
	var a, b bytes.Buffer
	if err := g.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialization must be deterministic")
	}
}

func TestReadGraphRejectsCorruption(t *testing.T) {
	g, _ := tinyConvGraph(33)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte{9, 9, 9, 9}, data[4:]...),
		"truncated": data[:len(data)/3],
	}
	for name, d := range cases {
		if _, err := ReadGraph(bytes.NewReader(d)); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

// badParamGraphs builds one-layer models whose parameters do not fit the
// layer: Save writes them as-is, and ReadGraph must refuse them.
func badParamGraphs() map[string]*Graph {
	spec := tensor.ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	conv := func(w, b *tensor.Tensor) *Graph {
		g := New("in", 1, 3, 5, 5)
		g.SetOutput(g.Conv(g.In, "c1", spec, w, b))
		return g
	}
	g := New("in", 1, 3)
	g.SetOutput(g.Dense(g.In, "fc1", tensor.New(4, 3), tensor.New(2)))
	return map[string]*Graph{
		"conv bias too short":  conv(tensor.New(spec.WeightShape()...), tensor.New(1)),
		"conv weight wrong":    conv(tensor.New(2, 3, 3, 3), nil),
		"conv weight missing":  conv(nil, tensor.New(4)),
		"dense bias too short": g,
	}
}

// TestReadGraphRejectsMismatchedParams: a model file whose conv weight is not
// [OutC, InC/Groups, KH, KW], or whose conv/dense bias length differs from
// the layer's outputs, fails to load with an error naming the node instead
// of panicking inside a kernel on the first run.
func TestReadGraphRejectsMismatchedParams(t *testing.T) {
	for name, g := range badParamGraphs() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := g.Save(&buf); err != nil {
				t.Fatal(err)
			}
			_, err := ReadGraph(&buf)
			if err == nil || !strings.Contains(err.Error(), g.Out.String()) {
				t.Fatalf("ReadGraph error = %v, want one naming %s", err, g.Out)
			}
		})
	}
}

func TestGraphRoundTripResidualTopology(t *testing.T) {
	// Shared nodes (residual pattern) must deduplicate properly: the add's
	// two paths must converge to the same node instance after loading.
	g := New("in", 1, 4)
	w := tensor.New(4, 4).Fill(0.5)
	x := g.Dense(g.In, "pre", w, nil)
	y := g.ReLU(x, "relu")
	g.SetOutput(g.Add(y, x, "res"))
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	add := back.Out
	if add.Kind != OpAdd {
		t.Fatalf("output is %v", add.Kind)
	}
	if add.Inputs[0].Inputs[0] != add.Inputs[1] {
		t.Fatal("residual sharing lost: relu's input is not the same node as add's second operand")
	}
}

func TestWriteDOT(t *testing.T) {
	g, _ := tinyConvGraph(50)
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph model", "Conv2D", "->", "peripheries=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Edge count: conv←in, bn←conv, relu←bn, flat←relu = 4 edges.
	if strings.Count(out, "->") != 4 {
		t.Fatalf("edge count = %d, want 4:\n%s", strings.Count(out, "->"), out)
	}
}
