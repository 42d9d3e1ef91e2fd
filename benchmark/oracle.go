package main

import (
	"fmt"
	"math"

	"repro/internal/conformance"
	"repro/internal/ipe"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// serveOptions are the compile options of an inspire-serve started with
// default flags (-force auto, -bits 4, no -fuse, no -autotune). The oracle,
// the traced server and the direct-call timings all compile through them, so
// they select the same implementation per layer as the server under test.
func serveOptions(dict *ipe.DictStore) runtime.Options {
	return runtime.Options{Force: runtime.ImplAuto, Bits: 4, DictStore: dict}
}

// graphSlack mirrors internal/conformance: a whole-graph float32 output may
// differ from the float64 reference by this share of the largest reference
// magnitude (at least 1).
const graphSlack = 2e-3

// expected holds the reference outputs of one (model, weight seed) for every
// pool input, computed by the conformance reference interpreter over the
// plan's effective (dequantized) weights and never by the executor under
// test.
type expected struct {
	outputs [][]float64
	tol     float64
}

// reference evaluates one (model, weight seed) with the conformance
// interpreter. The model is compiled the way the server compiles it only to
// learn which weights each layer effectively computes with.
type reference struct {
	plan *runtime.Plan
	eff  map[int]*tensor.Tensor
}

func newReference(model string, weightSeed uint64) (*reference, error) {
	plan, err := obs.CompilePlan(model, weightSeed, serveOptions(nil))
	if err != nil {
		return nil, err
	}
	eff, err := plan.EffectiveWeights()
	if err != nil {
		return nil, err
	}
	return &reference{plan: plan, eff: eff}, nil
}

// add appends the reference output for one more input and widens the
// tolerance to the largest magnitude seen.
func (r *reference) add(e *expected, in *tensor.Tensor) error {
	ref, err := conformance.RefGraph(r.plan.Graph, in, r.eff)
	if err != nil {
		return err
	}
	scale := math.Max(1, e.tol/graphSlack)
	for _, v := range ref {
		scale = math.Max(scale, math.Abs(v))
	}
	e.outputs = append(e.outputs, ref)
	e.tol = graphSlack * scale
	return nil
}

// expectedFor evaluates the reference on every input.
func expectedFor(model string, weightSeed uint64, inputs []*tensor.Tensor) (*expected, error) {
	r, err := newReference(model, weightSeed)
	if err != nil {
		return nil, err
	}
	e := &expected{}
	for i, in := range inputs {
		if err := r.add(e, in); err != nil {
			return nil, fmt.Errorf("reference for %s seed %d input %d: %w", model, weightSeed, i, err)
		}
	}
	return e, nil
}

// check compares one response's data against the expected outputs of the
// pool inputs the request carried, in order.
func (e *expected) check(items []int, got []float32) error {
	off := 0
	for _, p := range items {
		ref := e.outputs[p]
		if off+len(ref) > len(got) {
			return fmt.Errorf("response has %d values, want %d", len(got), len(items)*len(ref))
		}
		for i, want := range ref {
			d := math.Abs(float64(got[off+i]) - want)
			if !(d <= e.tol) { // a NaN fails
				return fmt.Errorf("item %d (pool input %d) element %d: got %v, want %v (tol %v)",
					off/len(ref), p, i, got[off+i], want, e.tol)
			}
		}
		off += len(ref)
	}
	if off != len(got) {
		return fmt.Errorf("response has %d values, want %d", len(got), off)
	}
	return nil
}

// lastIsDistinct reports whether the newest expected output differs from
// every earlier one by more than twice the tolerance somewhere, i.e. whether
// check would notice its request receiving another request's output.
func (e *expected) lastIsDistinct() bool {
	last := e.outputs[len(e.outputs)-1]
	for _, other := range e.outputs[:len(e.outputs)-1] {
		far := false
		for i := range last {
			if math.Abs(last[i]-other[i]) > 2*e.tol {
				far = true
				break
			}
		}
		if !far {
			return false
		}
	}
	return true
}

// buildPool draws the workload's Gaussian input tensors (one compiled-batch
// item each) from the seed, together with their expected outputs under the
// boot weights. A candidate whose output the check could not tell from an
// earlier input's is skipped, so a batch slice scattered to the wrong request
// always shows.
func buildPool(seed uint64, model string) ([]*tensor.Tensor, *expected, error) {
	r, err := newReference(model, 0)
	if err != nil {
		return nil, nil, err
	}
	rng := rngFor(seed, "inputs/"+model)
	var pool []*tensor.Tensor
	e := &expected{}
	for tries := 0; len(pool) < poolSize; tries++ {
		if tries == 8*poolSize {
			return nil, nil, fmt.Errorf("seed %d: %d candidate %s inputs gave only %d distinguishable outputs", seed, tries, model, len(pool))
		}
		in := tensor.New(r.plan.Graph.In.OutShape...)
		tensor.FillGaussian(in, rng, 1)
		if err := r.add(e, in); err != nil {
			return nil, nil, err
		}
		if !e.lastIsDistinct() {
			e.outputs = e.outputs[:len(e.outputs)-1]
			continue
		}
		pool = append(pool, in)
	}
	return pool, e, nil
}

// oracle maps the served version number to its expected outputs. Version 1
// is the boot version (weight seed 0); version 1+k is swap k of the run.
type oracle map[int64]*expected

// buildOracle completes the table for every version the workload can observe
// during a run that performs at most swaps hot swaps. boot is the pool's
// expected outputs under the boot weights.
func buildOracle(w Workload, seed uint64, pool []*tensor.Tensor, boot *expected, swaps int) (oracle, error) {
	o := oracle{1: boot}
	for k := 1; k <= swaps; k++ {
		e, err := expectedFor(w.Model, swapSeed(seed, k), pool[:w.inputsUsed()])
		if err != nil {
			return nil, err
		}
		o[int64(1+k)] = e
	}
	return o, nil
}
