package runtime

import (
	"repro/internal/baseline"
	"repro/internal/ipe"
)

// ResidentBytes estimates the heap bytes this plan's serving structures keep
// resident — the selected implementation per operator, plus the arms a
// tuner rebuilt — split into bytes attributable to the plan (owned) and bytes
// aliased to IPE programs some other plan already accounted for (shared).
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
	tensorBytes := func(ts ...interface{ NumElements() int }) {
		for _, t := range ts {
			if t != nil {
				owned += int64(t.NumElements()) * 4
			}
		}
	}
	csrBytes := func(c *baseline.CSR) {
		if c != nil {
			owned += int64(len(c.RowPtr))*4 + int64(len(c.Col))*4 + int64(len(c.Val))*4
		}
	}
	factBytes := func(f *baseline.Factorized) {
		if f != nil {
			for _, row := range f.Rows {
				owned += 24
				for _, t := range row.Terms {
					owned += 32 + int64(len(t.Idx))*4
				}
			}
		}
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.ipeConv != nil {
			for _, prog := range op.ipeConv.Programs {
				addProg(prog)
			}
			if op.ipeConv.Bias != nil {
				owned += int64(op.ipeConv.Bias.NumElements()) * 4
			}
		}
		if op.ipeDense != nil {
			addProg(op.ipeDense.Program)
			if op.ipeDense.Bias != nil {
				owned += int64(op.ipeDense.Bias.NumElements()) * 4
			}
		}
		if op.csrConv != nil {
			for _, m := range op.csrConv.Mats {
				csrBytes(m)
			}
		}
		csrBytes(op.csrDense)
		if op.factConv != nil {
			for _, m := range op.factConv.Mats {
				factBytes(m)
			}
		}
		factBytes(op.factDense)
		if op.winConv != nil {
			for _, oc := range op.winConv.U {
				owned += int64(len(oc)) * 16 * 4
			}
		}
		if op.denseWeight != nil {
			tensorBytes(op.denseWeight)
		}
		if op.denseBias != nil {
			tensorBytes(op.denseBias)
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
		if op.ipeConv != nil {
			progs = append(progs, op.ipeConv.Programs...)
		}
		if op.ipeDense != nil {
			progs = append(progs, op.ipeDense.Program)
		}
	}
	return progs
}
