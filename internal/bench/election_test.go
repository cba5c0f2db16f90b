package bench

import "testing"

// TestElectionFailoverSmoke runs E15 small: the quorum must elect
// within the harness deadline every round, and the primary must have
// shipped journal segments to its replicas.
func TestElectionFailoverSmoke(t *testing.T) {
	r, err := ElectionFailover(ElectionConfig{Rounds: 2, Members: 24, Churn: 6})
	if err != nil {
		t.Fatalf("ElectionFailover: %v", err)
	}
	if len(r.Latencies) != 2 {
		t.Fatalf("got %d rounds, want 2", len(r.Latencies))
	}
	for i, l := range r.Latencies {
		if l <= 0 {
			t.Errorf("round %d latency %v, want > 0", i, l)
		}
	}
	if r.SegmentBytes <= 0 {
		t.Errorf("segment bytes = %d, want > 0", r.SegmentBytes)
	}
	if got := r.Table(); len(got.Rows) < 4 {
		t.Errorf("table has %d rows, want >= 4", len(got.Rows))
	}
}
