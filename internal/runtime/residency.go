package runtime

import (
	"repro/internal/graph"
	"repro/internal/ipe"
	"repro/internal/tensor"
)

// ResidentBytes estimates the heap bytes this plan's serving structures keep
// resident — the selected implementation per operator — split into bytes
// attributable to the plan (owned) and bytes aliased to IPE programs some
// other plan already accounted for (shared).
// seen carries the canonical-program set across calls: pass one map over
// every live plan to get dedup-aware totals (a program interned by the
// shared dictionary store is counted as owned by the first plan that
// reports it and as shared by the rest). A nil seen counts the plan alone,
// deduplicating only within it. Activation arenas are accounted separately
// (metrics.ExecStats.ArenaBytesResident tracks live executors).
func (p *Plan) ResidentBytes(seen map[*ipe.Program]bool) (owned, shared int64) {
	if seen == nil {
		seen = make(map[*ipe.Program]bool)
	}
	addProg := func(prog *ipe.Program) {
		if prog == nil {
			return
		}
		if seen[prog] {
			shared += prog.MemoryBytes()
			return
		}
		seen[prog] = true
		owned += prog.MemoryBytes()
	}
	tensorBytes := func(t *tensor.Tensor) {
		if t != nil {
			owned += int64(t.NumElements()) * 4
		}
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		if l := op.progConv; l != nil {
			for _, prog := range l.Programs {
				addProg(prog)
			}
		}
		if l := op.progDense; l != nil {
			addProg(l.Program)
		}
		if op.winConv != nil {
			for _, oc := range op.winConv.U {
				owned += int64(len(oc)) * 16 * 4
			}
		}
		tensorBytes(op.denseWeight)
		if k := op.Node.Kind; k == graph.OpConv || k == graph.OpDense {
			// Every structure an op keeps (and denseBias) reads the node's
			// one bias tensor: count it once per op.
			tensorBytes(op.Node.Param("bias"))
		}
	}
	return owned, shared
}

// IPEPrograms returns every IPE program the plan references, in operator
// order (conv groups before dense). Programs interned by a shared
// dictionary store appear as their canonical pointers, so callers can
// detect cross-plan sharing by identity.
func (p *Plan) IPEPrograms() []*ipe.Program {
	var progs []*ipe.Program
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Impl != ImplIPE {
			continue
		}
		if l := op.progConv; l != nil {
			progs = append(progs, l.Programs...)
		}
		if l := op.progDense; l != nil {
			progs = append(progs, l.Program)
		}
	}
	return progs
}
