package accel

import "fmt"

// Simulate produces a roofline-style estimate for a kernel profile: the
// kernel takes max(compute-bound, bandwidth-bound) cycles, where refetch
// traffic is charged when the working set exceeds the scratchpad.
func (c Config) Simulate(p KernelProfile) Result {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	dram := c.chargedDRAM(p)
	compute := ceilDiv(p.Ops(), int64(c.PEs))
	mem := int64(float64(dram)/c.BytesPerCycle()) + c.DRAMLatencyCycles
	cycles := compute
	if mem > cycles {
		cycles = mem
	}
	return Result{
		Cycles:        cycles,
		ComputeCycles: compute,
		MemCycles:     mem,
		EnergyPJ:      c.energy(p, dram),
		DRAMBytes:     dram,
	}
}

// chargedDRAM inflates the profile's DRAM traffic by a refetch factor when
// the working set exceeds the scratchpad: each excess multiple of the SRAM
// forces re-streaming of the stationary operand (weights or instruction
// stream). Profiles that do not distinguish a stationary portion
// (StationaryBytes == 0) have all their traffic re-streamed, the
// conservative reading.
func (c Config) chargedDRAM(p KernelProfile) int64 {
	if p.WorkingSetBytes <= c.SRAMBytes {
		return p.DRAMBytes
	}
	refetch := ceilDiv(p.WorkingSetBytes, c.SRAMBytes)
	if p.StationaryBytes > 0 {
		return p.DRAMBytes + (refetch-1)*p.StationaryBytes
	}
	return p.DRAMBytes * refetch
}

func (c Config) energy(p KernelProfile, dram int64) float64 {
	return float64(p.Adds)*c.EnergyAddPJ +
		float64(p.Muls)*c.EnergyMulPJ +
		float64(p.SRAMAccesses)*c.EnergySRAMPJ +
		float64(dram)/4*c.EnergyDRAMPJ
}

// Tile is one unit of the double-buffered execution pipeline: load its
// inputs from DRAM, run its ops, store its outputs.
type Tile struct {
	LoadBytes  int64
	StoreBytes int64
	Adds, Muls int64
	// SRAMAccesses for energy accounting; 0 means estimate as 2·(Adds+Muls).
	SRAMAccesses int64
}

// Ops returns the tile's total scalar op count.
func (t Tile) Ops() int64 { return t.Adds + t.Muls }

// SimulateTiles runs the tile-granular double-buffered model: the load of
// tile i+1 overlaps the compute of tile i, stores overlap the next load,
// and the PEs stall whenever a tile's transfer takes longer than the
// previous tile's compute. This is the "cycle-approximate" path used for
// the latency figures; Simulate is its lower bound.
func (c Config) SimulateTiles(name string, tiles []Tile) Result {
	res, _ := c.SimulateTilesTrace(name, tiles, 0)
	return res
}

// SimulateTilesTrace is the one tile-pipeline loop behind SimulateTiles. It
// also records the timeline of the first maxTrace tiles, for pipeline
// visualization (`inspire-tune -trace`); at maxTrace 0 it records nothing
// and allocates nothing.
func (c Config) SimulateTilesTrace(name string, tiles []Tile, maxTrace int) (Result, []TileTrace) {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	if len(tiles) == 0 {
		return Result{}, nil
	}
	bpc := c.BytesPerCycle()
	xfer := func(bytes int64) int64 {
		if bytes == 0 {
			return 0
		}
		return c.DRAMLatencyCycles + int64(float64(bytes)/bpc)
	}
	var now, computeDone int64
	var res Result
	var totalAdds, totalMuls, totalSRAM, totalDRAM int64
	traces := make([]TileTrace, min(maxTrace, len(tiles)))
	for i := range tiles {
		t := &tiles[i]
		// Load starts as soon as the DMA engine is free (sequential DMA),
		// which is when the previous load finished: tracked by `now`.
		loadDone := now + xfer(t.LoadBytes)
		// Compute starts when both the load is done and the PE array is
		// free from the previous tile.
		start := loadDone
		if computeDone > start {
			start = computeDone
		}
		compute := ceilDiv(t.Ops(), int64(c.PEs))
		stall := start - computeDone
		if computeDone == 0 {
			stall = 0 // pipeline fill is not a stall
		}
		computeDone = start + compute
		res.ComputeCycles += compute
		res.StallCycles += stall
		// The store is drained by the DMA engine after the load; model it
		// as occupying the channel after the load completes.
		now = loadDone + xfer(t.StoreBytes)
		if i < len(traces) {
			traces[i] = TileTrace{LoadStart: loadDone - xfer(t.LoadBytes), LoadEnd: loadDone,
				ComputeStart: start, ComputeEnd: computeDone, Stall: stall}
			if t.StoreBytes > 0 {
				traces[i].StoreEnd = now
			}
		}
		totalAdds += t.Adds
		totalMuls += t.Muls
		if t.SRAMAccesses > 0 {
			totalSRAM += t.SRAMAccesses
		} else {
			totalSRAM += 2 * t.Ops()
		}
		totalDRAM += t.LoadBytes + t.StoreBytes
	}
	res.Cycles = computeDone
	if now > res.Cycles {
		res.Cycles = now
	}
	res.MemCycles = res.Cycles - res.ComputeCycles
	if res.MemCycles < 0 {
		res.MemCycles = 0
	}
	res.DRAMBytes = totalDRAM
	res.EnergyPJ = c.energy(KernelProfile{Name: name, Adds: totalAdds, Muls: totalMuls, SRAMAccesses: totalSRAM}, totalDRAM)
	return res, traces
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("accel: ceilDiv by %d", b))
	}
	return (a + b - 1) / b
}
