package obs

import "testing"

// TestServedPlanResidentBytes pins what a served version keeps resident:
// the owned Plan.ResidentBytes of inspire-serve's default auto plans. While
// every compiled program also kept its emit stream a second time, as the
// single-vector tape, they read 675 444 B (lenet5) and 7 556 808 B
// (squeezenet); without it 513 204 B and 5 621 980 B. The ceilings sit just
// above the latter, so a second stream, or any other structure kept per
// program, shows here.
func TestServedPlanResidentBytes(t *testing.T) {
	for _, tc := range []struct {
		model string
		limit int64
	}{
		{"lenet5", 513_476},
		{"squeezenet", 5_624_164},
	} {
		plan, err := CompilePlan(tc.model, 0, serveDefaults())
		if err != nil {
			t.Fatal(err)
		}
		owned, _ := plan.ResidentBytes(nil)
		t.Logf("%s: %d B owned", tc.model, owned)
		if owned > tc.limit {
			t.Errorf("%s: auto plan owns %d B, ceiling %d B", tc.model, owned, tc.limit)
		}
	}
}
