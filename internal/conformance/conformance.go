// Package conformance is the differential-testing backbone of the
// reproduction: one deliberately slow, obviously-correct reference
// interpreter (straight-line loops, float64 accumulation, no
// scratch/arena/pool machinery), a seeded randomized generator of layer
// configurations and small model graphs, and a driver that runs every
// registered implementation — ipe float/int (encoded, CSR and factorized
// programs), baseline Winograd, tensor direct/im2col, and the runtime Executor's
// Run and RunBatch, each serially and sharded — against the reference and
// against each other.
//
// Correctness contract:
//
//   - Variants within one implementation family (alloc / Into / IntoPar at
//     any shard count, Executor at any parallelism, RunBatch chunks vs
//     single runs) must be bit-identical; the repo's sharded kernels
//     guarantee shard-count-invariant accumulation order and this package
//     enforces it bitwise.
//   - Integer paths (ExecuteInt, ForwardInt8, ExecuteQuantized[Asym]) must
//     match a straight-loop integer reference exactly (int64 addition is
//     associative), including the float requantization tail, replicated
//     operation for operation.
//   - Across families, float outputs must agree with the float64 reference
//     within a per-element tolerance scaled by the reference's magnitude
//     bound Σ|w·x|+|bias| (different families accumulate in different
//     orders, so bitwise equality across families is not defined).
//
// Every failure message leads with the generator seed; Check*(seed)
// rebuilds the identical case from that seed alone, so a CI failure line is
// a complete reproduction recipe.
//
// To plug a new kernel in, add a familyRun that calls it to its family in
// driver.go (or a new family, with its own oracle), or, for a whole-plan
// implementation, list it in runtime.ForceableImpls. A kernel is considered
// correct only once this package exercises it.
package conformance

import (
	"fmt"
	"math"
)

const (
	// refSlack scales the reference's per-element magnitude bound into the
	// tolerance for a float32 implementation: the bound sums |w·x|, so
	// slack·bound dominates any accumulation-order difference by orders of
	// magnitude while still catching real indexing or scaling bugs.
	refSlack = 1e-3
	// refFloor is the absolute tolerance floor for elements whose
	// magnitude bound is tiny.
	refFloor = 1e-5
	// graphSlack scales the whole-graph tolerance: multi-layer error
	// compounds, so graph outputs get a global bound relative to the
	// largest reference magnitude.
	graphSlack = 2e-3
)

// divergence formats the canonical failure report: the seed rebuilds the
// case, the index locates the first divergent element, and both values are
// printed in full precision.
func divergence(seed uint64, path, ref string, idx int, got, want, tol float64) error {
	return fmt.Errorf("conformance: seed %d: %s diverges from %s at element %d: got %v, want %v (tol %v)",
		seed, path, ref, idx, got, want, tol)
}

// checkExact requires got and want to be bitwise identical float32 slices
// (variants of one family share an accumulation order, so anything short of
// bit equality is a real divergence).
func checkExact(seed uint64, path, ref string, got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("conformance: seed %d: %s has %d elements, %s has %d",
			seed, path, len(got), ref, len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return divergence(seed, path, ref, i, float64(got[i]), float64(want[i]), 0)
		}
	}
	return nil
}

// checkExactInt requires two int64 slices to be identical.
func checkExactInt(seed uint64, path, ref string, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("conformance: seed %d: %s has %d elements, %s has %d",
			seed, path, len(got), ref, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return divergence(seed, path, ref, i, float64(got[i]), float64(want[i]), 0)
		}
	}
	return nil
}

// checkClose compares a float32 implementation output against the float64
// reference with the per-element magnitude-scaled tolerance. NaNs always
// diverge.
func checkClose(seed uint64, path string, got []float32, ref, mag []float64) error {
	if len(got) != len(ref) {
		return fmt.Errorf("conformance: seed %d: %s has %d elements, reference has %d",
			seed, path, len(got), len(ref))
	}
	for i := range got {
		tol := refSlack*mag[i] + refFloor
		d := math.Abs(float64(got[i]) - ref[i])
		if !(d <= tol) { // NaN comparison fails, which is what we want
			return divergence(seed, path, "reference", i, float64(got[i]), ref[i], tol)
		}
	}
	return nil
}

// checkGraphClose compares a whole-graph float32 output against the
// float64 graph reference with a global tolerance scaled by the largest
// reference magnitude (per-element magnitude bounds are not propagated
// through multi-layer graphs).
func checkGraphClose(seed uint64, path string, got []float32, ref []float64) error {
	if len(got) != len(ref) {
		return fmt.Errorf("conformance: seed %d: %s has %d elements, reference has %d",
			seed, path, len(got), len(ref))
	}
	scale := 1.0
	for _, v := range ref {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	tol := graphSlack * scale
	for i := range got {
		d := math.Abs(float64(got[i]) - ref[i])
		if !(d <= tol) {
			return divergence(seed, path, "graph reference", i, float64(got[i]), ref[i], tol)
		}
	}
	return nil
}
