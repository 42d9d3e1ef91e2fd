package runtime

import (
	"repro/internal/ipe"
	"repro/internal/tensor"
)

// ResidentBytes estimates the heap bytes this plan's serving structures keep
// resident — the selected implementation per operator — split into bytes
// attributable to the plan (owned) and bytes of compiled streams some other
// plan already accounted for (shared).
// seen carries the canonical-stream set across calls: pass one map over
// every live plan to get dedup-aware totals (streams interned by the shared
// dictionary store are counted as owned by the first plan that reports them
// and as shared by the rest). A nil seen counts the plan alone,
// deduplicating only within it. Activation arenas are accounted separately
// (metrics.ExecStats.ArenaBytesResident tracks live executors).
func (p *Plan) ResidentBytes(seen map[*ipe.Compiled]bool) (owned, shared int64) {
	if seen == nil {
		seen = make(map[*ipe.Compiled]bool)
	}
	tensorBytes := func(t *tensor.Tensor) {
		if t != nil {
			owned += int64(t.NumElements()) * 4
		}
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		for _, c := range op.streams {
			if seen[c] {
				shared += c.MemoryBytes()
				continue
			}
			seen[c] = true
			owned += c.MemoryBytes()
		}
		if op.winConv != nil {
			for _, oc := range op.winConv.U {
				owned += int64(len(oc)) * 16 * 4
			}
		}
		tensorBytes(op.denseWeight)
		// Every structure an op keeps reads the node's one bias tensor,
		// op.bias: count it once per op.
		tensorBytes(op.bias)
	}
	return owned, shared
}

// IPEPrograms returns the compiled streams of every IPE program the plan
// serves, in operator order (one per conv group, one per dense layer).
// Streams interned by a shared dictionary store appear as their canonical
// pointers, so callers can detect cross-plan sharing by identity.
func (p *Plan) IPEPrograms() []*ipe.Compiled {
	var cs []*ipe.Compiled
	for i := range p.Ops {
		if op := &p.Ops[i]; op.Impl == ImplIPE {
			cs = append(cs, op.streams...)
		}
	}
	return cs
}
