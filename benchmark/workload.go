package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/serve"
	"repro/internal/tensor"
)

// Workload is one traffic mix. The server sees only the requests it
// generates.
type Workload struct {
	Name  string
	Model string
	// Items is the request size in compiled-batch items.
	Items int
	// Rate > 0 makes the workload open loop: Poisson arrivals at Rate
	// requests per second, sent over Conns connections, each timed from the
	// instant it was due. Rate 0 is a closed loop: each of Conns clients
	// sends its next request when the previous reply arrives.
	Rate  float64
	Conns int
	// SwapEvery > 0 adds one more connection that hot-swaps Model to a
	// never-seen weight seed on that period.
	SwapEvery time.Duration
}

// poolSize is the number of distinct inputs per model. Requests rotate
// through them, so a batch slice scattered to the wrong request shows as a
// wrong output.
const poolSize = 8

// workloads is the benchmark's traffic: names and order match
// BENCHMARK.json, which also records why each was chosen.
var workloads = []Workload{
	// Small model at a fixed offered rate: HTTP, JSON and the 2 ms
	// coalescing wait dominate, and two requests can overlap and coalesce.
	{Name: "lenet5_open200", Model: "lenet5", Items: 1, Rate: 200, Conns: 2},
	// Kernel-bound single-item latency: one chunk gets all intra-op shards,
	// so sharding is on the blocking path.
	{Name: "squeezenet_closed1", Model: "squeezenet", Items: 1, Conns: 1},
	// 8 items per request: RunBatch fans chunks over both cores with 1 shard
	// each, and JSON bodies are 8x larger.
	{Name: "squeezenet_batch8", Model: "squeezenet", Items: 8, Conns: 1},
	// Predicts beside a hot swap every two seconds: compile, publish and
	// drain run concurrently with serving.
	{Name: "mixed_swap", Model: "squeezenet", Items: 1, Conns: 1, SwapEvery: 2 * time.Second},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// swapInputs is how many pool inputs a swapping workload sends: every
// swapped-in version needs its own expected outputs, so the table is kept
// small.
const swapInputs = 2

// inputsUsed is the number of pool inputs the workload rotates through.
func (w Workload) inputsUsed() int {
	if w.SwapEvery > 0 {
		return swapInputs
	}
	return poolSize
}

// swapSeed is the weight seed of the k-th swap (k from 1) of a run. Seeds
// never repeat within a run, so every swap compiles weights the shared
// dictionary has not seen.
func swapSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) }

// rngFor derives an independent deterministic stream for one purpose of one
// run.
func rngFor(seed uint64, purpose string) *tensor.RNG {
	h := seed*0x9e3779b97f4a7c15 + 0x7f4a7c15
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return tensor.NewRNG(h)
}

// requestItems lists the pool indices request number i carries: Items
// consecutive inputs starting at a rotating offset, so successive requests
// differ and a multi-item request holds distinct items in a known order.
func (w Workload) requestItems(i int) []int {
	used := w.inputsUsed()
	idx := make([]int, w.Items)
	for j := range idx {
		idx[j] = (i + j) % used
	}
	return idx
}

// bodies pre-encodes one request body per rotation offset, so the generator
// spends its measured time sending, not marshalling.
func (w Workload) bodies(pool []*tensor.Tensor) ([][]byte, error) {
	used := w.inputsUsed()
	out := make([][]byte, used)
	for r := 0; r < used; r++ {
		shape := append([]int(nil), pool[0].Shape()...)
		shape[0] *= w.Items
		data := make([]float32, 0, w.Items*pool[0].NumElements())
		for _, p := range w.requestItems(r) {
			data = append(data, pool[p].Data()...)
		}
		b, err := json.Marshal(serve.PredictRequest{Shape: shape, Data: data})
		if err != nil {
			return nil, fmt.Errorf("encoding request body: %w", err)
		}
		out[r] = b
	}
	return out, nil
}

// poissonSchedule returns the due offsets of an open-loop run: exponential
// gaps at the given rate, from 0 until span is covered.
func poissonSchedule(seed uint64, rate float64, span time.Duration) []time.Duration {
	rng := rngFor(seed, "arrivals")
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}
