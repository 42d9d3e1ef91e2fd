package ipe

import "sort"

// Scratch-slot allocation for the partial-sum scratchpad.
//
// A naive decoder gives every dictionary entry its own scratchpad word
// (K + D words total). But execution order is fixed — pairs build in
// dependency order, rows emit in row order — so each entry has a precise
// lifetime: born when its pair executes, dead after its last reader (a
// later pair or the last row term referencing it). Allocating slots with a
// free list over those lifetimes is linear-scan register allocation on the
// decode pipeline, and it shrinks the scratchpad the hardware must
// provision. Raw inputs keep their fixed K words; only dictionary entries
// are allocated.

// ScratchPlan maps dictionary entries to reusable scratch slots.
type ScratchPlan struct {
	// Slot[j] is the scratch slot of dictionary entry j (0-based, beyond
	// the K input words).
	Slot []int32
	// NumSlots is the number of distinct slots needed (≤ len(Slot)).
	NumSlots int
}

// lastUses computes, for each dictionary entry, the time step of its final
// read. Time steps: pair j executes at step j; row r's terms read at step
// len(Pairs)+r.
func (p *Program) lastUses() []int {
	last := make([]int, len(p.Pairs))
	use := func(s int32, step int) {
		if int(s) >= p.K {
			j := int(s) - p.K
			if step > last[j] {
				last[j] = step
			}
		}
	}
	for j, pr := range p.Pairs {
		use(pr.A, j)
		use(pr.B, j)
	}
	for r, row := range p.Rows {
		step := len(p.Pairs) + r
		for _, t := range row.Terms {
			for _, s := range t.Syms {
				use(s, step)
			}
		}
	}
	return last
}

// AllocateScratch performs linear-scan slot allocation over the program's
// fixed execution order and returns the plan. Entries that are never read
// (impossible after dead pruning, but tolerated) free immediately.
func (p *Program) AllocateScratch() ScratchPlan {
	last := p.lastUses()
	plan := ScratchPlan{Slot: make([]int32, len(p.Pairs))}
	// expiring[step] lists slots to free after the given step.
	expiring := make(map[int][]int32)
	var free []int32
	next := int32(0)
	for j := range p.Pairs {
		// Free slots whose owners died strictly before this step.
		if dead, ok := expiring[j]; ok {
			free = append(free, dead...)
			// Prefer low slot numbers for determinism.
			sort.Slice(free, func(a, b int) bool { return free[a] < free[b] })
			delete(expiring, j)
		}
		var slot int32
		if len(free) > 0 {
			slot = free[0]
			free = free[1:]
		} else {
			slot = next
			next++
		}
		plan.Slot[j] = slot
		// The entry dies after step last[j]; it becomes reusable at the
		// step after that. Steps beyond the pair phase never free within
		// this loop, which is fine: only pair-phase reuse shrinks the
		// scratchpad (row emission reads but never writes slots).
		expiring[last[j]+1] = append(expiring[last[j]+1], slot)
	}
	plan.NumSlots = int(next)
	return plan
}

// Validate checks the plan against the program: no two entries with
// overlapping lifetimes may share a slot.
func (sp ScratchPlan) Validate(p *Program) bool {
	if len(sp.Slot) != len(p.Pairs) {
		return false
	}
	last := p.lastUses()
	// Entry j is live over [j, last[j]]. Same slot ⇒ disjoint intervals.
	bySlot := make(map[int32][]int)
	for j, s := range sp.Slot {
		bySlot[s] = append(bySlot[s], j)
	}
	for _, entries := range bySlot {
		for a := 0; a < len(entries); a++ {
			for b := a + 1; b < len(entries); b++ {
				i, j := entries[a], entries[b]
				if i <= last[j] && j <= last[i] {
					return false
				}
			}
		}
	}
	return true
}
