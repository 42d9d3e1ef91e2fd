package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestForCoversRangeOnce checks that every index in [0, n) is visited
// exactly once for a spread of shard counts and range sizes, including
// shards > n and empty ranges.
func TestForCoversRangeOnce(t *testing.T) {
	pool := NewPool(4)
	for _, shards := range []int{1, 2, 3, 7, 100} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			counts := make([]int32, n)
			pool.For(shards, n, func(shard, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("shards=%d n=%d: index %d visited %d times", shards, n, i, c)
				}
			}
		}
	}
}

// TestForShardIndicesDistinct checks that shard indices are dense, unique,
// and in range — callers index per-shard scratch arenas with them.
func TestForShardIndicesDistinct(t *testing.T) {
	pool := NewPool(8)
	const shards, n = 6, 97
	var mu sync.Mutex
	seen := map[int]bool{}
	pool.For(shards, n, func(shard, lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		if shard < 0 || shard >= shards {
			t.Errorf("shard %d out of range [0, %d)", shard, shards)
		}
		if seen[shard] {
			t.Errorf("shard %d used twice", shard)
		}
		seen[shard] = true
	})
}

// TestForBlocksQuantumAligned checks that every shard boundary except the
// final hi lands on a multiple of the quantum.
func TestForBlocksQuantumAligned(t *testing.T) {
	pool := NewPool(4)
	const quantum = 64
	for _, n := range []int{1, 63, 64, 65, 1000} {
		var mu sync.Mutex
		var covered int
		pool.ForBlocks(8, n, quantum, func(shard, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			if lo%quantum != 0 {
				t.Errorf("n=%d: shard lo %d not quantum-aligned", n, lo)
			}
			if hi%quantum != 0 && hi != n {
				t.Errorf("n=%d: shard hi %d neither aligned nor final", n, hi)
			}
			covered += hi - lo
		})
		if covered != n {
			t.Fatalf("n=%d: covered %d indices", n, covered)
		}
	}
}

// TestForNoTokensRunsInline checks that a zero-size pool degrades to
// sequential inline execution on the caller goroutine.
func TestForNoTokensRunsInline(t *testing.T) {
	pool := NewPool(0)
	var order []int
	pool.For(4, 8, func(shard, lo, hi int) {
		order = append(order, shard) // no synchronization: must be caller-only
	})
	if len(order) != 4 {
		t.Fatalf("got %d shards, want 4", len(order))
	}
	for i, s := range order {
		if s != i {
			t.Fatalf("inline execution out of order: %v", order)
		}
	}
}

// TestForNestedDoesNotDeadlock nests parallel regions deeper than the
// token count; the non-blocking acquire must degrade to inline execution
// instead of deadlocking.
func TestForNestedDoesNotDeadlock(t *testing.T) {
	pool := NewPool(2)
	var total int64
	pool.For(4, 4, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			pool.For(4, 4, func(_, lo2, hi2 int) {
				for j := lo2; j < hi2; j++ {
					pool.For(2, 2, func(_, lo3, hi3 int) {
						atomic.AddInt64(&total, int64(hi3-lo3))
					})
				}
			})
		}
	})
	if total != 4*4*2 {
		t.Fatalf("nested total %d, want %d", total, 4*4*2)
	}
}

// TestSharedPoolSize pins the shared pool to at least one helper token so
// concurrency is exercised even on single-core machines.
func TestSharedPoolSize(t *testing.T) {
	if n := cap(Shared().tokens); n < 1 {
		t.Fatalf("Shared() pool size %d, want >= 1", n)
	}
	if Shared() != Shared() {
		t.Fatal("Shared() must return one process-wide pool")
	}
}
