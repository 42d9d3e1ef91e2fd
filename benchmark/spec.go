package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json the harness reads: the names, units
// and regression bounds every later performance change is judged on.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// worseBy is how much worse b is than a as a share of a, in the metric's own
// direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets is the repeatability self-check: two sets of runs of the same
// build must agree, in both directions, within each end-to-end metric's own
// bound. It prints every comparison and reports whether all held.
func compareSets(root string, first, last []*Result) (bool, error) {
	spec, err := loadSpec(root)
	if err != nil {
		return false, err
	}
	fmt.Println("# repeatability: first set against last set, each end-to-end metric within its bound")
	ok := true
	for i, a := range first {
		b := last[i]
		vals := make(map[string]float64, len(b.Metrics))
		for _, m := range b.Metrics {
			vals[m.Name] = m.Value
		}
		for _, m := range a.Metrics {
			var sm *specMetric
			for j := range spec.EndToEnd {
				if spec.EndToEnd[j].Name == m.Name {
					sm = &spec.EndToEnd[j]
				}
			}
			if sm == nil {
				continue // layer metrics carry no bound
			}
			fwd, back := worseBy(sm.Better, m.Value, vals[m.Name]), worseBy(sm.Better, vals[m.Name], m.Value)
			diff := fwd
			if back > diff {
				diff = back
			}
			verdict := "ok"
			if diff > sm.Bound {
				verdict, ok = "OUTSIDE BOUND", false
			}
			fmt.Printf("  %-20s %-20s %12.4f %12.4f  diff %5.1f%%  bound %4.1f%%  %s\n",
				a.Workload, m.Name, m.Value, vals[m.Name], 100*diff, 100*sm.Bound, verdict)
		}
	}
	return ok, nil
}
