package experiments

import "testing"

// The ISSUE acceptance criteria for the chaos experiment, asserted on the
// exact recipe and seed the committed table is generated with: resilient
// goodput recovers to ≥90% of pre-storm within the window, resilient p99
// stays within 2x the calm baseline, and the resilience-off leg is
// measurably worse on both goodput and SLO losses.
func TestChaosRecoveryCriteria(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos recovery experiment skipped in -short")
	}
	s := NewSuite(1, 1) // rounds are irrelevant; seed 1 matches -run chaos
	runs, err := s.ChaosRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("%d legs, want 3", len(runs))
	}
	base, off, resil := runs[0], runs[1], runs[2]

	if base.Res.Completed != base.Res.Offered {
		t.Fatalf("calm baseline lost requests: %v", base.Res)
	}
	if off.Res.Expired+off.Res.Failed+off.Res.Unroutable == 0 {
		t.Fatal("storm without resilience lost nothing — storm too mild to mean anything")
	}

	if resil.Recovery < 0.9 {
		t.Fatalf("resilient post-storm goodput recovered to %.1f%% of pre-storm, want >= 90%%", 100*resil.Recovery)
	}
	if limit := 2 * base.Res.P99NS; resil.Res.P99NS > limit {
		t.Fatalf("resilient p99 %.1f ms exceeds 2x baseline (%.1f ms)", resil.Res.P99NS/1e6, limit/1e6)
	}

	// Resilience off must be measurably worse: goodput through the storm
	// and total SLO losses (lost + expired).
	if off.StormRPS >= 0.5*resil.StormRPS {
		t.Fatalf("storm goodput without resilience %.0f req/s, with %.0f — not measurably worse", off.StormRPS, resil.StormRPS)
	}
	offLoss := off.Res.Expired + off.Res.Failed + off.Res.Unroutable
	resilLoss := resil.Res.Expired + resil.Res.Failed + resil.Res.Unroutable
	if resilLoss >= offLoss {
		t.Fatalf("SLO losses: %d with resilience vs %d without", resilLoss, offLoss)
	}
	if resil.Res.Completed <= off.Res.Completed {
		t.Fatalf("completions: %d with resilience vs %d without", resil.Res.Completed, off.Res.Completed)
	}
	if resil.Res.Retried == 0 || resil.Res.Hedged == 0 || resil.Res.BrownoutShed == 0 {
		t.Fatalf("resilience machinery idle: retried %d, hedged %d, brownout %d",
			resil.Res.Retried, resil.Res.Hedged, resil.Res.BrownoutShed)
	}
}
