package tensor

import (
	goruntime "runtime"

	"repro/internal/parallel"
)

// Par is the intra-op parallelism context threaded through the sharded
// *Par kernels: a bounded worker pool to draw helpers from, a shard count,
// and one Scratch arena per shard (a Scratch is not concurrency-safe, so
// shards must never share one). A nil *Par means serial execution with no
// scratch, which only kernels that need no scratch accept.
//
// Par is the one kernel calling convention: every kernel family has a single
// destination-passing *Par entry point and no separate serial form. Sharded
// kernels split work over disjoint output regions and keep each output's
// accumulation order unchanged, so the result is bit-identical for any
// shard count. With Shards() == 1 the kernels take their serial path
// directly — no closures, no goroutines, zero heap allocations — so a
// one-shard Par is the serial kernel.
type Par struct {
	pool    *parallel.Pool
	shards  int
	scratch []*Scratch
}

// NewPar builds a context drawing helpers from pool with the given shard
// count; shards <= 0 means GOMAXPROCS.
func NewPar(pool *parallel.Pool, shards int) *Par {
	p := &Par{pool: pool}
	p.SetShards(shards)
	return p
}

// SetShards changes the shard count (<= 0 means GOMAXPROCS), growing the
// per-shard scratch set as needed. Existing scratches keep their warmed
// backing stores. Must not be called while a parallel region is running.
func (p *Par) SetShards(n int) {
	if n <= 0 {
		n = goruntime.GOMAXPROCS(0)
	}
	p.shards = n
	for len(p.scratch) < n {
		p.scratch = append(p.scratch, &Scratch{})
	}
}

// Shards returns the shard count; a nil Par is serial (1).
func (p *Par) Shards() int {
	if p == nil {
		return 1
	}
	return p.shards
}

// Parallel reports whether the context actually shards (more than one
// shard). Kernels branch on it so the serial path stays closure-free.
func (p *Par) Parallel() bool { return p != nil && p.shards > 1 }

// Scratch returns shard i's private scratch arena.
func (p *Par) Scratch(i int) *Scratch { return p.scratch[i] }

// HighWater returns the largest per-shard scratch peak (in floats) across
// the context's shards — the executor's per-run scratch telemetry.
func (p *Par) HighWater() int {
	if p == nil {
		return 0
	}
	hw := 0
	for _, s := range p.scratch {
		if s.HighWater() > hw {
			hw = s.HighWater()
		}
	}
	return hw
}

// Reset rewinds every per-shard scratch, invalidating outstanding slices.
// Backing stores are kept, so warmed execution stays allocation-free.
func (p *Par) Reset() {
	if p == nil {
		return
	}
	for _, s := range p.scratch {
		s.Reset()
	}
}

// For runs fn over [0, n) split into Shards() contiguous blocks on the
// pool. See parallel.Pool.For for the scheduling and identity contract.
func (p *Par) For(n int, fn func(shard, lo, hi int)) {
	p.pool.For(p.shards, n, fn)
}

// ForBlocks is For with shard boundaries aligned to multiples of quantum.
func (p *Par) ForBlocks(n, quantum int, fn func(shard, lo, hi int)) {
	p.pool.ForBlocks(p.shards, n, quantum, fn)
}
