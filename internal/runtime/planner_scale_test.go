package runtime_test

import (
	"fmt"
	"testing"

	"repro/internal/conformance"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/runtime"
)

// TestPlanMemoryScalesWithBatch checks the invariant multi-item executor
// runs rest on: the memory plan of a graph built at m times its batch
// places every buffer at m times the batch-1 offset and size, and needs m
// times the arena. PlanMemory is first-fit over sizes that all carry the
// batch as a factor, so scaling every size scales every decision.
func TestPlanMemoryScalesWithBatch(t *testing.T) {
	type build func(m int) *graph.Graph
	cases := map[string]build{
		"lenet5":     func(m int) *graph.Graph { return nn.LeNet5(m, 3) },
		"squeezenet": func(m int) *graph.Graph { return nn.SqueezeNet(m, 32, 10, 3) },
	}
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6} {
		gc := conformance.GenGraph(seed)
		cases[fmt.Sprintf("conformance-%d", seed)] = func(m int) *graph.Graph {
			g := gc.Graph.Clone()
			g.In.OutShape[0] *= m
			if err := g.InferShapes(); err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	for name, build := range cases {
		plan := func(m int) (map[int]runtime.Allocation, int64) {
			g := build(m)
			if err := graph.Optimize(g); err != nil {
				t.Fatalf("%s at %d: %v", name, m, err)
			}
			alloc, bytes, err := runtime.PlanMemory(g)
			if err != nil {
				t.Fatalf("%s at %d: %v", name, m, err)
			}
			return alloc, bytes
		}
		base, baseBytes := plan(1)
		for _, m := range []int{2, 3, 8} {
			alloc, bytes := plan(m)
			mm := int64(m)
			if bytes != mm*baseBytes {
				t.Errorf("%s at %d: arena %d, want %d x %d", name, m, bytes, m, baseBytes)
			}
			if len(alloc) != len(base) {
				t.Fatalf("%s at %d: %d allocations, want %d", name, m, len(alloc), len(base))
			}
			for id, al := range base {
				if got := alloc[id]; got.Offset != mm*al.Offset || got.Size != mm*al.Size {
					t.Errorf("%s at %d: node %d at %+v, want %d x %+v", name, m, id, got, m, al)
				}
			}
		}
	}
}
