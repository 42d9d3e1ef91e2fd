// Package schedule defines the tiling schedule templates that map
// convolution kernels onto the simulated accelerator, mirroring the
// AutoTVM-style template-plus-tunable-parameters formulation the paper's
// auto-tuner searches over. A schedule fixes the output/input tile sizes
// and unrolling; legality checks enforce the scratchpad capacity and PE
// array constraints; Simulate lowers the schedule to pipeline tiles and
// runs the accelerator model.
package schedule

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/tensor"
)

// Workload is one convolution instance to schedule.
type Workload struct {
	Spec    tensor.ConvSpec
	N, H, W int
}

// OutDims returns the workload's output spatial dims.
func (w Workload) OutDims() (int, int) { return w.Spec.OutDims(w.H, w.W) }

// Key returns a stable identity string for the workload, used as its name
// in reports and simulation traces.
func (w Workload) Key() string {
	s := w.Spec.Normalize()
	return fmt.Sprintf("conv-n%d-c%d-k%d-r%dx%d-s%dx%d-p%dx%d-g%d-h%d-w%d",
		w.N, s.InC, s.OutC, s.KH, s.KW, s.StrideH, s.StrideW, s.PadH, s.PadW, s.Groups, w.H, w.W)
}

// Dataflow selects which operand stays resident across the tile loop — the
// Eyeriss-style taxonomy. It changes what each pipeline tile must load:
// the stationary operand's traffic amortizes over the loop it is held
// across.
type Dataflow int

const (
	// OutputStationary holds output accumulators; weights and inputs
	// stream per tile.
	OutputStationary Dataflow = iota
	// WeightStationary holds the weight slice across the spatial loop;
	// its load cost amortizes over the spatial tiles.
	WeightStationary
	// InputStationary holds the input tile across the output-channel
	// loop; its load cost amortizes over the OC tiles.
	InputStationary
)

// String returns the dataflow's short name.
func (d Dataflow) String() string {
	switch d {
	case WeightStationary:
		return "ws"
	case InputStationary:
		return "is"
	default:
		return "os"
	}
}

// ConvSchedule is one point of the schedule template: the output-channel,
// output-row, output-column and input-channel tile sizes, kernel-width
// unrolling, and the dataflow. It corresponds to the (T_x, T_y, T_z,
// Tile_*) knobs of AutoTVM-style conv templates plus the loop-order choice
// a spatial accelerator exposes.
type ConvSchedule struct {
	TileOC, TileOH, TileOW int
	TileIC                 int
	UnrollKW               bool
	Dataflow               Dataflow
}

// String renders the schedule compactly for logs and tables.
func (s ConvSchedule) String() string {
	u := ""
	if s.UnrollKW {
		u = "+unroll"
	}
	return fmt.Sprintf("oc%d.oh%d.ow%d.ic%d.%s%s", s.TileOC, s.TileOH, s.TileOW, s.TileIC, s.Dataflow, u)
}

// footprintBytes returns the double-buffered scratchpad footprint of one
// tile: the weight slice, the input halo tile, and the output tile.
func (s ConvSchedule) footprintBytes(w Workload) int64 {
	spec := w.Spec.Normalize()
	icg := spec.InC / spec.Groups
	tic := min(s.TileIC, icg)
	weight := int64(s.TileOC) * int64(tic) * int64(spec.KH) * int64(spec.KW) * 4
	inH := (s.TileOH-1)*spec.StrideH + spec.KH
	inW := (s.TileOW-1)*spec.StrideW + spec.KW
	input := int64(tic) * int64(inH) * int64(inW) * 4
	output := int64(s.TileOC) * int64(s.TileOH) * int64(s.TileOW) * 4
	fp := 2 * (weight + input + output) // double buffering
	// The stationary operand is additionally pinned across its loop.
	switch s.Dataflow {
	case WeightStationary:
		fp += weight
	case InputStationary:
		fp += input
	}
	return fp
}

// Legal reports whether the schedule is valid for the workload on the given
// hardware: positive tiles within the loop extents and a footprint that
// fits the scratchpad.
func (s ConvSchedule) Legal(w Workload, hw accel.Config) error {
	spec := w.Spec.Normalize()
	oh, ow := w.OutDims()
	icg := spec.InC / spec.Groups
	ocg := spec.OutC / spec.Groups
	switch {
	case s.TileOC < 1 || s.TileOH < 1 || s.TileOW < 1 || s.TileIC < 1:
		return fmt.Errorf("schedule: non-positive tile in %v", s)
	case s.TileOC > ocg:
		return fmt.Errorf("schedule: TileOC %d exceeds group output channels %d", s.TileOC, ocg)
	case s.TileOH > oh || s.TileOW > ow:
		return fmt.Errorf("schedule: spatial tile %dx%d exceeds output %dx%d", s.TileOH, s.TileOW, oh, ow)
	case s.TileIC > icg:
		return fmt.Errorf("schedule: TileIC %d exceeds group input channels %d", s.TileIC, icg)
	}
	if fp := s.footprintBytes(w); fp > hw.SRAMBytes {
		return fmt.Errorf("schedule: footprint %d bytes exceeds scratchpad %d", fp, hw.SRAMBytes)
	}
	return nil
}

// parallelism is the scalar-lane parallelism a tile exposes: output
// channels × output columns (× kernel width when unrolled). The PE array
// cannot be utilized beyond it.
func (s ConvSchedule) parallelism(w Workload) int {
	p := s.TileOC * s.TileOW * s.TileOH
	if s.UnrollKW {
		p *= w.Spec.KW
	}
	return p
}

// maxTiles caps the pipeline-tile sequence length: beyond it, consecutive
// identical tiles are coalesced. Since every tile of a schedule is
// identical, coalescing preserves total ops and traffic and leaves the
// steady-state max(compute, transfer) behaviour intact; only the (already
// negligible) pipeline-fill granularity changes.
const maxTiles = 4096

// Tiles lowers the scheduled convolution to the pipeline-tile sequence
// consumed by accel.SimulateTiles.
func (s ConvSchedule) Tiles(w Workload) []accel.Tile {
	spec := w.Spec.Normalize()
	oh, ow := w.OutDims()
	icg := spec.InC / spec.Groups
	ocg := spec.OutC / spec.Groups
	nOC := ceil(ocg, s.TileOC)
	nOH := ceil(oh, s.TileOH)
	nOW := ceil(ow, s.TileOW)
	tic := min(s.TileIC, icg)
	nIC := ceil(icg, tic)
	inH := (s.TileOH-1)*spec.StrideH + spec.KH
	inW := (s.TileOW-1)*spec.StrideW + spec.KW
	weightBytes := int64(s.TileOC) * int64(tic) * int64(spec.KH) * int64(spec.KW) * 4
	inBytes := int64(tic) * int64(inH) * int64(inW) * 4
	outBytes := int64(s.TileOC) * int64(s.TileOH) * int64(s.TileOW) * 4
	// The stationary operand's traffic amortizes over the loop it is held
	// across (spatial tiles for WS, output-channel tiles for IS).
	switch s.Dataflow {
	case WeightStationary:
		weightBytes = ceil64(weightBytes, int64(nOH*nOW))
	case InputStationary:
		inBytes = ceil64(inBytes, int64(nOC))
	}
	macsPerTile := int64(s.TileOC) * int64(s.TileOH) * int64(s.TileOW) * int64(tic) * int64(spec.KH) * int64(spec.KW)
	total := w.N * spec.Groups * nOC * nOH * nOW * nIC
	// Coalesce when the sequence would be too long (see maxTiles).
	group := 1
	if total > maxTiles {
		group = (total + maxTiles - 1) / maxTiles
	}
	// Tile steps [lo, hi) form one coalesced tile. Every step loads and
	// computes the same amount; outputs are stored once per (oc, oh, ow)
	// tile, on its last reduction step, i.e. at each step i with
	// (i+1) % nIC == 0 — hi/nIC - lo/nIC of them in the range.
	tiles := make([]accel.Tile, 0, (total+group-1)/group)
	for lo := 0; lo < total; lo += group {
		hi := min(lo+group, total)
		n := int64(hi - lo)
		tiles = append(tiles, accel.Tile{
			LoadBytes:    n * (weightBytes + inBytes),
			StoreBytes:   int64(hi/nIC-lo/nIC) * outBytes,
			Adds:         n * macsPerTile,
			Muls:         n * macsPerTile,
			SRAMAccesses: n * 2 * macsPerTile,
		})
	}
	return tiles
}

// Simulate runs the scheduled convolution on the accelerator model. The PE
// array is derated to the parallelism the tile shape exposes, which is what
// makes schedule choice matter: small tiles starve the array, oversized
// tiles are illegal.
func (s ConvSchedule) Simulate(w Workload, hw accel.Config) (accel.Result, error) {
	if err := s.Legal(w, hw); err != nil {
		return accel.Result{}, err
	}
	eff := hw
	if p := s.parallelism(w); p < eff.PEs {
		eff.PEs = p
	}
	return eff.SimulateTiles(w.Key()+"/"+s.String(), s.Tiles(w)), nil
}

// HeuristicDense models the dense convolution on the default schedule an
// untuned compiler would pick: the fastest legal point of five fixed
// template points, from the largest tiles down to the smallest. With no
// legal point (a pathological scratchpad) it falls back to the roofline
// profile. It is the dense candidate Compile ranks and the dense baseline of
// the per-layer figures.
func HeuristicDense(w Workload, hw accel.Config) accel.Result {
	sp := NewSpace(w, hw)
	best := accel.Result{Cycles: 1 << 62}
	found := false
	for _, idx := range [][]int{
		{len(sp.OCOpts) - 1, 0, len(sp.OWOpts) - 1, len(sp.ICOpts) - 1, 0, 0},
		{len(sp.OCOpts) - 1, 0, len(sp.OWOpts) - 1, len(sp.ICOpts) - 1, 0, 1},
		{len(sp.OCOpts) / 2, 0, len(sp.OWOpts) - 1, len(sp.ICOpts) / 2, 0, 0},
		{0, 0, len(sp.OWOpts) - 1, 0, 0, 0},
		{0, 0, 0, 0, 0, 0},
	} {
		if res, err := sp.At(idx).Simulate(w, hw); err == nil {
			found = true
			if res.Cycles < best.Cycles {
				best = res
			}
		}
	}
	if !found {
		return hw.Simulate(accel.DenseConvProfile(w.Spec, w.N, w.H, w.W))
	}
	return best
}

// Options returns the power-of-two candidate values for a loop extent,
// always including 1 and the extent itself.
func Options(extent int) []int {
	var out []int
	for v := 1; v < extent; v *= 2 {
		out = append(out, v)
	}
	out = append(out, extent)
	return out
}

// Space enumerates the schedule search space of a workload: power-of-two
// tile sizes per dimension plus the unroll flag. It mirrors the
// template-parameter grid an AutoTVM-style tuner explores.
type Space struct {
	W  Workload
	HW accel.Config

	OCOpts, OHOpts, OWOpts, ICOpts []int
}

// NewSpace builds the search space for a workload.
func NewSpace(w Workload, hw accel.Config) *Space {
	spec := w.Spec.Normalize()
	oh, ow := w.OutDims()
	return &Space{
		W: w, HW: hw,
		OCOpts: Options(spec.OutC / spec.Groups),
		OHOpts: Options(oh),
		OWOpts: Options(ow),
		ICOpts: Options(spec.InC / spec.Groups),
	}
}

// Dims implements autotune.Space: the cardinality of each decision (the
// last two dimensions are the unroll flag and the dataflow).
func (s *Space) Dims() []int {
	return []int{len(s.OCOpts), len(s.OHOpts), len(s.OWOpts), len(s.ICOpts), 2, 3}
}

// At materializes the schedule at a given index vector.
func (s *Space) At(idx []int) ConvSchedule {
	return ConvSchedule{
		TileOC:   s.OCOpts[idx[0]],
		TileOH:   s.OHOpts[idx[1]],
		TileOW:   s.OWOpts[idx[2]],
		TileIC:   s.ICOpts[idx[3]],
		UnrollKW: idx[4] == 1,
		Dataflow: Dataflow(idx[5]),
	}
}

// Eval implements autotune.Space: the cost (cycles) of the schedule at idx,
// and whether it is legal.
func (s *Space) Eval(idx []int) (float64, bool) {
	sched := s.At(idx)
	res, err := sched.Simulate(s.W, s.HW)
	if err != nil {
		return 0, false
	}
	return float64(res.Cycles), true
}

// Size returns the total number of points (legal or not).
func (s *Space) Size() int {
	n := 1
	for _, d := range s.Dims() {
		n *= d
	}
	return n
}

func ceil(a, b int) int { return (a + b - 1) / b }

func ceil64(a, b int64) int64 { return (a + b - 1) / b }
