package ipe

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestAllocateScratchValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		q := randQuant(r, 16, 48, 1+r.Intn(5), 0)
		prog, _, err := Encode(q, Config{MaxDict: 200, MaxDepth: 8})
		if err != nil {
			return false
		}
		plan := prog.AllocateScratch()
		if !plan.Validate(prog) {
			return false
		}
		return plan.NumSlots <= prog.DictSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// executeSlots evaluates the program through the scratch plan: dictionary
// values live in plan slots instead of one word per entry. It exists to
// prove the plan's semantic equivalence; production decoders bake the slot
// ids into the stream (compile.go).
func executeSlots(p *Program, x, y []float32, plan ScratchPlan) {
	slots := make([]float32, plan.NumSlots)
	val := func(s int32) float32 {
		if int(s) < p.K {
			return x[s]
		}
		return slots[plan.Slot[int(s)-p.K]]
	}
	for j, pr := range p.Pairs {
		v := val(pr.A) + val(pr.B)
		slots[plan.Slot[j]] = v
	}
	for r := range p.Rows {
		var acc float32
		for _, t := range p.Rows[r].Terms {
			var g float32
			for _, s := range t.Syms {
				g += val(s)
			}
			acc += t.Value * g
		}
		y[r] = acc
	}
}

func TestExecuteSlotsMatchesExecuteProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		q := randQuant(r, 12, 40, 4, 0)
		prog, _, err := Encode(q, DefaultConfig())
		if err != nil {
			return false
		}
		plan := prog.AllocateScratch()
		x := make([]float32, prog.K)
		for i := range x {
			x[i] = float32(r.NormFloat64())
		}
		y1 := execVector(prog, x)
		y2 := make([]float32, prog.M)
		executeSlots(prog, x, y2, plan)
		for i := range y1 {
			if y1[i] != y2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateScratchShrinksWithDeepMerging(t *testing.T) {
	// With deep merging, intermediate pairs die as soon as their parents
	// consume them, so slots must be reused: NumSlots < DictSize.
	r := tensor.NewRNG(9)
	w := tensor.New(48, 256)
	tensor.FillGaussian(w, r, 1)
	q := quantize4(w)
	prog, _, err := Encode(q, Config{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if prog.MaxDepthUsed() < 2 {
		t.Skip("encoding produced no deep entries on this input")
	}
	plan := prog.AllocateScratch()
	if plan.NumSlots >= prog.DictSize() {
		t.Fatalf("no slot reuse: %d slots for %d entries", plan.NumSlots, prog.DictSize())
	}
}

func TestAllocateScratchEmptyDict(t *testing.T) {
	q := qm([]int32{1, 0, 0, 2}, 2, 2)
	prog, _, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan := prog.AllocateScratch()
	if plan.NumSlots != 0 || len(plan.Slot) != 0 {
		t.Fatalf("empty dictionary should need no slots: %+v", plan)
	}
	if !plan.Validate(prog) {
		t.Fatal("empty plan should validate")
	}
}

func TestScratchPlanValidateRejectsBadPlan(t *testing.T) {
	q := qm([]int32{
		1, 1, 0, 0,
		1, 1, 1, 1,
	}, 2, 4)
	prog, _, err := Encode(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.DictSize() < 2 {
		t.Skip("need at least two entries")
	}
	bad := ScratchPlan{Slot: make([]int32, prog.DictSize()), NumSlots: 1}
	// All entries in slot 0: entries overlapping in time must collide.
	if bad.Validate(prog) {
		t.Fatal("overlapping same-slot plan accepted")
	}
}
