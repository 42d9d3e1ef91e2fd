package graph

import (
	"bytes"
	"testing"

	"repro/internal/tensor"
)

// corpusGraphs builds a few representative graphs for the deserialization
// seed corpus: a conv/pool/dense classifier, a residual block, and a
// minimal input→dense chain.
func corpusGraphs() []*Graph {
	var gs []*Graph

	g := New("mini", 1, 2, 6, 6)
	spec := tensor.ConvSpec{InC: 2, OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w := tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, tensor.NewRNG(1), 0.5)
	b := tensor.New(3)
	x := g.Conv(g.In, "c1", spec, w, b)
	x = g.ReLU(x, "r1")
	x = g.MaxPool(x, "p1", PoolAttrs{KH: 2, KW: 2, StrideH: 2, StrideW: 2})
	x = g.Flatten(x, "f")
	fcw := tensor.New(4, 3*3*3)
	tensor.FillGaussian(fcw, tensor.NewRNG(2), 0.1)
	x = g.Dense(x, "fc", fcw, nil)
	g.SetOutput(g.Softmax(x, "sm"))
	gs = append(gs, g)

	g = New("res", 1, 2, 5, 5)
	spec = tensor.ConvSpec{InC: 2, OutC: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w = tensor.New(spec.WeightShape()...)
	tensor.FillGaussian(w, tensor.NewRNG(3), 0.5)
	c := g.Conv(g.In, "c", spec, w, nil)
	x = g.Add(c, g.In, "add")
	x = g.GlobalAvgPool(x, "gap")
	g.SetOutput(g.Flatten(x, "f"))
	gs = append(gs, g)

	g = New("dense-only", 2, 3)
	dw := tensor.New(2, 3)
	tensor.FillGaussian(dw, tensor.NewRNG(4), 1)
	g.SetOutput(g.Dense(g.In, "fc", dw, tensor.New(2)))
	gs = append(gs, g)

	return gs
}

// FuzzGraphDeserialize feeds arbitrary bytes to ReadGraph. The invariants:
// ReadGraph never panics (malformed streams return errors), and any stream
// it accepts round-trips — Save produces bytes that parse again and
// re-serialize byte-identically.
func FuzzGraphDeserialize(f *testing.F) {
	for _, g := range corpusGraphs() {
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("IGM1"))
	var bad bytes.Buffer
	if err := badParamGraphs()["conv bias too short"].Save(&bad); err != nil {
		f.Fatal(err)
	}
	f.Add(bad.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGraph(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b1 bytes.Buffer
		if err := g.Save(&b1); err != nil {
			t.Fatalf("accepted graph fails to save: %v", err)
		}
		g2, err := ReadGraph(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("saved graph fails to reload: %v", err)
		}
		var b2 bytes.Buffer
		if err := g2.Save(&b2); err != nil {
			t.Fatalf("reloaded graph fails to save: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("save/load/save is not byte-stable: %d vs %d bytes", b1.Len(), b2.Len())
		}
	})
}

// TestReadGraphRejectsHugeTensorHeader pins the chunked-read hardening: a
// tiny stream claiming a maximal tensor must fail fast on truncation, not
// allocate the claimed size up front.
func TestReadGraphRejectsHugeTensorHeader(t *testing.T) {
	g := corpusGraphs()[2]
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The dense weight tensor [2, 3] serializes as rank=2, dims 2 and 3.
	// Inflate the dims to claim ~2^28 elements with no payload behind them.
	i := bytes.Index(data, []byte{2, 2, 0, 0, 0, 3, 0, 0, 0})
	if i < 0 {
		t.Fatal("could not locate the weight tensor header in the stream")
	}
	data = append([]byte(nil), data[:i+1]...)
	data = append(data, []byte{0, 0, 255, 0, 0, 0, 255, 0}...) // dims 0xff0000 × 0xff00
	if _, err := ReadGraph(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated stream with a huge tensor header was accepted")
	}
}
