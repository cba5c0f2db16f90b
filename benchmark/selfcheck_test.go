package main

import "testing"

// TestTapSelfCheck runs the traced run's tap self-check: the tap must
// count exactly the frames E7b pins for a quiet join and rejoin.
func TestTapSelfCheck(t *testing.T) {
	tl := &tally{}
	selfCheck(tl, 1)
	if tl.failed != 0 {
		t.Fatalf("self-check failed: %v", tl.breaches)
	}
}
