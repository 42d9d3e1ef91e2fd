//go:build !race

package serve

import "testing"

// TestDecodePredictZeroAllocs decodes the 8-item SqueezeNet body through a
// pooled buffer: once warm, it allocates nothing. (The race detector makes
// sync.Pool drop items at random, hence the build tag.)
func TestDecodePredictZeroAllocs(t *testing.T) {
	body := workloadBody(t, 8, 1, 3, 32, 32)
	allocs := testing.AllocsPerRun(20, func() {
		pb := getPredictBuf()
		pb.body = append(pb.body[:0], body...)
		if _, err := pb.decode(); err != nil {
			t.Fatal(err)
		}
		pb.release()
	})
	if allocs != 0 {
		t.Fatalf("decode allocates %.1f times per request, want 0", allocs)
	}
}
