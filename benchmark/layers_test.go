package main

import (
	"strings"
	"testing"

	"mykil/internal/crypt"
)

// TestUnmeasuredLayerFails pins that a traced run which captured nothing
// fails, naming each row it could not measure, instead of reporting 0.
func TestUnmeasuredLayerFails(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := crypt.NewKeyPool(1, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	tl := &tally{}
	tl.layer.pool = pool
	tl.layer.areaSize = 8
	m := layerMetrics(tl, runConfig{workers: 1, scratch: t.TempDir()}, sp)
	breaches := strings.Join(tl.breaches, "\n")
	for _, row := range []string{"crypt.rsa_verify_us", "wire.frames_per_join", "journal.records_per_sync"} {
		if !strings.Contains(breaches, "layer metric "+row+" not measured") {
			t.Errorf("no breach for unmeasured %s", row)
		}
	}
	// Counted events are real zeros on a quiet run.
	for _, row := range []string{"simnet.dropped", "node.drops", "area.crossarea_lost"} {
		if strings.Contains(breaches, row) {
			t.Errorf("zero count %s reported as unmeasured", row)
		}
		if v, ok := m[row]; !ok || v.Value != 0 {
			t.Errorf("%s = %+v, want 0", row, v)
		}
	}
}
