package obs

import (
	"testing"

	"repro/internal/runtime"
)

// TestServedPlanResidentBytes pins what a served version keeps resident:
// the owned Plan.ResidentBytes of inspire-serve's default auto plans, and
// of squeezenet forced to CSR, the largest encoded form. While every
// compiled program also kept its emit stream a second time, as the
// single-vector tape, the auto plans read 675 444 B (lenet5) and
// 7 556 808 B (squeezenet); without it 513 204 B and 5 621 980 B, and the
// CSR plan 28 724 428 B. Once a served op kept only its compiled streams,
// not the source programs beside them, they read 220 728 B, 2 371 788 B and
// 7 199 856 B. The ceilings sit just above the latter, so a source form, a
// second stream, or any other structure kept per program, shows here.
func TestServedPlanResidentBytes(t *testing.T) {
	for _, tc := range []struct {
		model string
		force runtime.Impl
		limit int64
	}{
		{"lenet5", runtime.ImplAuto, 221_000},
		{"squeezenet", runtime.ImplAuto, 2_374_000},
		{"squeezenet", runtime.ImplCSR, 7_207_000},
	} {
		opts := serveDefaults()
		opts.Force = tc.force
		plan, err := CompilePlan(tc.model, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		owned, _ := plan.ResidentBytes(nil)
		t.Logf("%s (%s): %d B owned", tc.model, tc.force, owned)
		if owned > tc.limit {
			t.Errorf("%s (%s): plan owns %d B, ceiling %d B", tc.model, tc.force, owned, tc.limit)
		}
	}
}
