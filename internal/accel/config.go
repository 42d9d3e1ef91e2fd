// Package accel is the cycle-approximate simulated spatial accelerator that
// substitutes for the paper's hardware testbed (DESIGN.md §2). It models a
// PE array fed by a double-buffered SRAM scratchpad over a DRAM channel,
// and converts kernel operation counts and memory traffic into cycles and
// energy. Two levels are provided: a roofline estimate (Simulate) and a
// tile-granular double-buffered event simulation (SimulateTiles).
//
// Energy constants follow the Horowitz ISSCC'14 per-operation figures for a
// 45 nm process, the de-facto standard of the accelerator literature.
package accel

import "fmt"

// Config parameterizes the simulated accelerator.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// PEs is the number of parallel scalar ALU lanes (MACs per cycle).
	PEs int
	// FreqGHz is the clock frequency in GHz.
	FreqGHz float64
	// SRAMBytes is the on-chip scratchpad capacity.
	SRAMBytes int64
	// DRAMBandwidthGBs is the off-chip bandwidth in GB/s.
	DRAMBandwidthGBs float64
	// DRAMLatencyCycles is the fixed cost of starting a DRAM burst.
	DRAMLatencyCycles int64

	// Per-operation energies in picojoules.
	EnergyAddPJ  float64 // 32-bit add
	EnergyMulPJ  float64 // 32-bit multiply
	EnergySRAMPJ float64 // per 4-byte SRAM access
	EnergyDRAMPJ float64 // per 4-byte DRAM access
}

// Default returns the evaluation's standard configuration: a 256-lane
// 1 GHz array with 512 KiB of SRAM and 16 GB/s of DRAM bandwidth — an
// edge-NPU class device.
func Default() Config {
	return Config{
		Name:              "inspire-npu",
		PEs:               256,
		FreqGHz:           1.0,
		SRAMBytes:         512 << 10,
		DRAMBandwidthGBs:  16,
		DRAMLatencyCycles: 100,
		EnergyAddPJ:       0.9,
		EnergyMulPJ:       3.7,
		EnergySRAMPJ:      5.0,
		EnergyDRAMPJ:      640.0,
	}
}

// Validate rejects non-physical configurations.
func (c Config) Validate() error {
	switch {
	case c.PEs <= 0:
		return fmt.Errorf("accel: PEs must be positive, got %d", c.PEs)
	case c.FreqGHz <= 0:
		return fmt.Errorf("accel: FreqGHz must be positive, got %v", c.FreqGHz)
	case c.SRAMBytes <= 0:
		return fmt.Errorf("accel: SRAMBytes must be positive, got %d", c.SRAMBytes)
	case c.DRAMBandwidthGBs <= 0:
		return fmt.Errorf("accel: DRAM bandwidth must be positive, got %v", c.DRAMBandwidthGBs)
	case c.DRAMLatencyCycles < 0:
		return fmt.Errorf("accel: DRAM latency must be non-negative")
	case c.EnergyAddPJ < 0 || c.EnergyMulPJ < 0 || c.EnergySRAMPJ < 0 || c.EnergyDRAMPJ < 0:
		return fmt.Errorf("accel: energies must be non-negative")
	}
	return nil
}

// BytesPerCycle returns the DRAM bytes transferable per clock cycle.
func (c Config) BytesPerCycle() float64 {
	return c.DRAMBandwidthGBs / c.FreqGHz // GB/s over Gcycle/s = B/cycle
}

// KernelProfile aggregates what a kernel execution does, independent of how
// the counts were obtained (analytic cost model or instrumented run).
type KernelProfile struct {
	Name string
	// Adds and Muls are scalar ALU operations.
	Adds, Muls int64
	// SRAMAccesses counts 4-byte scratchpad reads+writes.
	SRAMAccesses int64
	// DRAMBytes counts off-chip traffic in bytes (reads + writes).
	DRAMBytes int64
	// StationaryBytes is the portion of DRAMBytes that the kernel wants
	// resident on chip (weights or the encoded instruction stream). Only
	// this portion is re-streamed when the working set overflows the
	// scratchpad; streaming activations cross DRAM once regardless.
	StationaryBytes int64
	// WorkingSetBytes is the kernel's peak on-chip footprint; when it
	// exceeds the SRAM capacity the simulator charges refetch traffic on
	// the stationary bytes.
	WorkingSetBytes int64
}

// Ops returns the total scalar ALU operation count.
func (p KernelProfile) Ops() int64 { return p.Adds + p.Muls }

// Add accumulates another profile into p (layer-wise aggregation).
func (p *KernelProfile) Accumulate(o KernelProfile) {
	p.Adds += o.Adds
	p.Muls += o.Muls
	p.SRAMAccesses += o.SRAMAccesses
	p.DRAMBytes += o.DRAMBytes
	p.StationaryBytes += o.StationaryBytes
	if o.WorkingSetBytes > p.WorkingSetBytes {
		p.WorkingSetBytes = o.WorkingSetBytes
	}
}

// Result is the outcome of a simulation.
type Result struct {
	// Cycles is the modeled execution time in clock cycles.
	Cycles int64
	// ComputeCycles and MemCycles are the compute-bound and
	// bandwidth-bound components (Cycles >= max of the two).
	ComputeCycles, MemCycles int64
	// StallCycles is the portion of Cycles the PEs spent waiting on DRAM
	// (tile simulation only; 0 for the roofline estimate).
	StallCycles int64
	// EnergyPJ is the total modeled energy in picojoules.
	EnergyPJ float64
	// DRAMBytes echoes the charged off-chip traffic (after refetch).
	DRAMBytes int64
}

// Microseconds converts the cycle count to wall time on configuration c.
func (r Result) Microseconds(c Config) float64 {
	return float64(r.Cycles) / (c.FreqGHz * 1e3)
}

// Accumulate adds another result (sequential layer execution).
func (r *Result) Accumulate(o Result) {
	r.Cycles += o.Cycles
	r.ComputeCycles += o.ComputeCycles
	r.MemCycles += o.MemCycles
	r.StallCycles += o.StallCycles
	r.EnergyPJ += o.EnergyPJ
	r.DRAMBytes += o.DRAMBytes
}
