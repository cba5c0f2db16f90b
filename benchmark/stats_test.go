package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestSupportedPercentile pins the tail rule: report the highest
// percentile, up to the one asked for, with at least ten samples beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		want float64
		n    int
		got  float64
	}{
		{0.99, 1000, 0.99},
		{0.99, 100, 0.90},
		{0.95, 100, 0.90},
		{0.95, 200, 0.95},
		{0.95, 400, 0.95},
		{0.50, 1000, 0.50},
		{0.95, 15, 0.50}, // too few samples for any tail: the median
		{0.95, 0, 0.50},
	} {
		if p := supported(c.want, c.n); !near(p, c.got) {
			t.Errorf("supported(%v, %d) = %v, want %v", c.want, c.n, p, c.got)
		}
	}
	// At the supported percentile, at least ten samples lie at or beyond
	// the reported value.
	xs := make([]float64, 120)
	for i := range xs {
		xs[i] = float64(i)
	}
	p, v := tail(xs, 0.99)
	beyond := 0
	for _, x := range xs {
		if x >= v {
			beyond++
		}
	}
	if beyond < minTail || p >= 0.99 {
		t.Errorf("tail over 120 samples reported p=%v v=%v with %d samples beyond", p, v, beyond)
	}
}

// TestQuartilesMatchPython checks the quartiles against values printed by
// Python's statistics.quantiles(data, n=4), the spread rule's reference.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.5, 1.25, 9, 2, 7}, [3]float64{1.625, 3.5, 8.0}},
		{[]float64{5, 5, 5, 5}, [3]float64{5, 5, 5}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

// TestLateness checks the open-loop generator's lateness figure and its
// flag against the bound.
func TestLateness(t *testing.T) {
	lags := make([]float64, 1000)
	for i := range lags {
		lags[i] = 0.1
	}
	for i := 0; i < 20; i++ {
		lags[i] = 8 // 2% of sends ran 8 ms late: beyond the 99th percentile
	}
	late, flagged := lateness(lags, 20, 0.25)
	if !near(late, 8) || !flagged {
		t.Errorf("lateness = %v flagged=%v, want 8 ms flagged (bound 5 ms)", late, flagged)
	}
	if late, flagged := lateness(lags, 40, 0.25); flagged || !near(late, 8) {
		t.Errorf("lateness = %v flagged=%v against a 40 ms p99, want unflagged", late, flagged)
	}
	if late, flagged := lateness(nil, 20, 0.25); late != 0 || flagged {
		t.Errorf("no sends: lateness = %v flagged=%v", late, flagged)
	}
	if lags[0] != 8 {
		t.Error("lateness reordered its input")
	}
}

// TestWindowed checks that a windowed figure is the median of the
// per-window percentiles and that short windows are skipped.
func TestWindowed(t *testing.T) {
	win := func(base float64, n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = base + float64(i)/float64(n)
		}
		return w
	}
	windows := [][]float64{win(1, 2000), win(2, 2000), win(100, 2000), win(50, 100)}
	p, v, used := windowed(windows, 0.5)
	if used != 3 || p != 0.5 || math.Abs(v-2.5) > 0.01 {
		t.Errorf("windowed p50 = p %v v %v over %d windows, want 2.5 over 3", p, v, used)
	}
	if p, _, _ := windowed(windows, 0.99); p != 0.99 {
		t.Errorf("windowed p99 used percentile %v, want 0.99", p)
	}
	// 1000 samples support p99 exactly; a shorter window is skipped.
	if p, _, used := windowed([][]float64{win(1, 1000), win(1, 999)}, 0.99); !near(p, 0.99) || used != 1 {
		t.Errorf("windowed p99 over 1000 and 999 samples: percentile %v over %d windows", p, used)
	}
}
