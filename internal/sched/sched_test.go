package sched

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// lenetPool1 is LeNet-5's conv1→pool1 region: 1×28×28 input, 6 5×5
// filters, 2×2/2 max pool.
func lenetPool1() Problem {
	return Problem{
		Spec: tensor.ConvSpec{InC: 1, OutC: 6, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
		InH:  28, InW: 28, Batch: 1,
		Pool:        graph.PoolAttrs{KH: 2, KW: 2, StrideH: 2, StrideW: 2},
		WeightBytes: 6 * 1 * 5 * 5 * 4,
	}
}

func TestPlanSingleTileWhenItFits(t *testing.T) {
	p := lenetPool1()
	tp, err := Plan(p, accel.Default())
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if tp.TilesPerImage != 1 || tp.TileOH != tp.PoolOH || tp.TileOW != tp.PoolOW {
		t.Fatalf("expected one full tile at 512KiB, got %+v", tp)
	}
	if tp.ConvOH != 24 || tp.ConvOW != 24 || tp.PoolOH != 12 || tp.PoolOW != 12 {
		t.Fatalf("bad geometry: %+v", tp)
	}
	// One full tile reads the input once: fused DRAM is input + weights +
	// pool output, strictly below the unfused conv+pool pair.
	if tp.FusedDRAMBytes >= tp.UnfusedDRAMBytes {
		t.Fatalf("fused DRAM %d not below unfused %d", tp.FusedDRAMBytes, tp.UnfusedDRAMBytes)
	}
	if err := p.Verify(tp, accel.Default()); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestPlanTilesUnderTightBudget(t *testing.T) {
	p := lenetPool1()
	hw := accel.Default()
	hw.SRAMBytes = 4 << 10
	tp, err := Plan(p, hw)
	if err != nil {
		t.Fatalf("Plan at 4KiB: %v", err)
	}
	if tp.TilesPerImage < 2 {
		t.Fatalf("expected multiple tiles at 4KiB, got %+v", tp)
	}
	if err := p.Verify(tp, hw); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestPlanFailsWhenWeightsAloneOverflow(t *testing.T) {
	p := lenetPool1()
	hw := accel.Default()
	hw.SRAMBytes = p.WeightBytes // no room for any activation tile
	if _, err := Plan(p, hw); err == nil {
		t.Fatal("expected no legal tile when weights fill the budget")
	}
}

func TestPlanHandlesPoolPadding(t *testing.T) {
	// Pool padding equal to the kernel makes corner pool pixels tap only
	// padding: their conv windows are empty and the plan must still cover
	// them.
	p := Problem{
		Spec: tensor.ConvSpec{InC: 2, OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		InH:  9, InW: 9, Batch: 2,
		Pool: graph.PoolAttrs{KH: 2, KW: 2, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2},
	}
	hw := accel.Default()
	tp, err := Plan(p, hw)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if err := p.Verify(tp, hw); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestWindowsPartitionPoolOutput(t *testing.T) {
	p := lenetPool1()
	hw := accel.Default()
	hw.SRAMBytes = 6 << 10
	tp, err := Plan(p, hw)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	ws := p.Windows(tp)
	pixels := 0
	for _, w := range ws {
		pixels += w.PoolPixels()
	}
	if pixels != tp.PoolOH*tp.PoolOW {
		t.Fatalf("windows cover %d pool pixels, want %d", pixels, tp.PoolOH*tp.PoolOW)
	}
}

func TestValidateRejectsDegenerateProblems(t *testing.T) {
	bad := []Problem{
		{},
		{Spec: tensor.ConvSpec{InC: 1, OutC: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
			InH: 1, InW: 1, Batch: 1, Pool: graph.PoolAttrs{KH: 2, KW: 2, StrideH: 2, StrideW: 2}},
		{Spec: tensor.ConvSpec{InC: 1, OutC: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
			InH: 4, InW: 4, Batch: 1, Pool: graph.PoolAttrs{KH: 0, KW: 2, StrideH: 2, StrideW: 2}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}
