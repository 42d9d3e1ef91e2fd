// Package parallel provides the process-wide bounded worker pool that
// intra-op sharded kernels draw helper goroutines from. The pool never
// blocks: a shard runs on a helper goroutine only while a pool token is
// available, and runs inline on the caller otherwise. That makes nesting
// safe (a sharded kernel inside a RunBatch worker inside another pool user
// cannot deadlock) and bounds the total helper count globally, so intra-op
// and inter-chunk parallelism compose without oversubscription: no matter
// how many goroutines shard work simultaneously, at most pool-size helpers
// exist on top of the callers themselves.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Pool is a bounded source of helper goroutines. The zero value is not
// usable; construct with NewPool or use Shared.
type Pool struct {
	tokens chan struct{}
	// stats, when set, receives the pool's telemetry: where each shard
	// block ran, helper scheduling latency, and token occupancy. Held in an
	// atomic pointer so SetStats is safe against in-flight For calls; when
	// nil (the default) every For pays one atomic load and a branch.
	stats atomic.Pointer[metrics.PoolStats]
}

// NewPool builds a pool with the given number of helper tokens. size <= 0
// yields a pool that never spawns helpers (every shard runs inline).
func NewPool(size int) *Pool {
	if size < 0 {
		size = 0
	}
	return &Pool{tokens: make(chan struct{}, size)}
}

var (
	sharedOnce sync.Once
	shared     *Pool
)

// Shared returns the process-wide pool, sized GOMAXPROCS-1 (the caller of a
// parallel region always executes one shard itself, so GOMAXPROCS-1 helpers
// saturate the machine). On a single-core machine it keeps one token so
// concurrency is still exercised (e.g. under the race detector), at
// negligible cost since shards only spawn when a token is free.
func Shared() *Pool {
	sharedOnce.Do(func() {
		shared = NewPool(max(1, runtime.GOMAXPROCS(0)-1))
	})
	return shared
}

// For splits [0, n) into at most shards contiguous blocks and calls
// fn(shard, lo, hi) once per non-empty block. Shard indices are dense in
// [0, shards) and each is used by exactly one block, so callers may index
// per-shard resources (scratch arenas) with them. The caller always runs
// the final block itself; earlier blocks run on helper goroutines only
// while pool tokens are available and inline otherwise. For returns after
// every block has completed.
//
// Blocks partition the index space identically for a given (shards, n), so
// any computation that keeps each output's accumulation inside one block is
// bit-identical across pool sizes, token availability, and scheduling.
func (p *Pool) For(shards, n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if shards > n {
		shards = n
	}
	if p == nil || shards <= 1 {
		fn(0, 0, n)
		return
	}
	st := p.stats.Load()
	st.EnterRegion(len(p.tokens))
	var wg sync.WaitGroup
	for s := 0; s < shards-1; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		if lo == hi {
			continue
		}
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			var spawned time.Time
			if st != nil {
				spawned = time.Now()
			}
			go func(s, lo, hi int) {
				defer func() {
					<-p.tokens
					wg.Done()
				}()
				if st != nil {
					st.SpawnWaitNs.Add(time.Since(spawned).Nanoseconds())
					st.HelperRuns.Add(1)
				}
				fn(s, lo, hi)
			}(s, lo, hi)
		default:
			if st != nil {
				st.InlineFallbacks.Add(1)
			}
			fn(s, lo, hi)
		}
	}
	if st != nil {
		st.CallerRuns.Add(1)
	}
	fn(shards-1, (shards-1)*n/shards, n)
	wg.Wait()
}

// SetStats attaches (or with nil detaches) a telemetry sink to the pool.
// Safe to call concurrently with For; in-flight regions finish against the
// sink they loaded at entry. runtime.EnableMetrics wires the shared pool
// into the process-wide recorder through this.
func (p *Pool) SetStats(st *metrics.PoolStats) { p.stats.Store(st) }

// ForBlocks is For with block boundaries aligned to multiples of quantum,
// for kernels whose inner loops are themselves blocked (e.g. the IPE
// matrix executor's column blocks). The final block absorbs the remainder.
func (p *Pool) ForBlocks(shards, n, quantum int, fn func(shard, lo, hi int)) {
	if quantum <= 1 {
		p.For(shards, n, fn)
		return
	}
	blocks := (n + quantum - 1) / quantum
	p.For(shards, blocks, func(shard, lo, hi int) {
		lo *= quantum
		hi *= quantum
		if hi > n {
			hi = n
		}
		fn(shard, lo, hi)
	})
}
