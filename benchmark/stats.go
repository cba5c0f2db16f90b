package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// supported returns the highest percentile, no higher than want (0..1),
// that has at least minTail of n samples beyond it; the median when n is
// too small for any tail.
func supported(want float64, n int) float64 {
	if n <= 0 {
		return 0.5
	}
	p := 1 - float64(minTail)/float64(n)
	if p > want {
		p = want
	}
	if p < 0.5 {
		p = 0.5
	}
	return p
}

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics. It sorts xs in place; NaN for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// tail reports the percentile the tail rule allows for want over xs and
// the value there.
func tail(xs []float64, want float64) (p, v float64) {
	p = supported(want, len(xs))
	return p, quantile(xs, p)
}

// minWindow is the fewest samples a window needs to count: enough for
// ten beyond the 99th percentile.
const minWindow = 1000

// windowed reports, for each window of at least minWindow samples, the
// percentile the tail rule allows for want, and returns the median of
// those per-window values with the lowest percentile any window used. A
// burst of interference then moves one window, not the whole figure.
func windowed(windows [][]float64, want float64) (p, v float64, used int) {
	var vals []float64
	p = want
	for _, w := range windows {
		if len(w) < minWindow {
			continue
		}
		wp, wv := tail(append([]float64(nil), w...), want)
		if wp < p {
			p = wp
		}
		vals = append(vals, wv)
	}
	return p, quantile(vals, 0.5), len(vals)
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), which is how run-to-run spread is judged. It needs two or
// more samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// lateness summarises how far an open-loop generator fell behind its
// schedule: the p99 of send time minus due time, in ms. The run is
// flagged when that lag alone could move the p99 latency it times by
// more than bound (a share of p99).
func lateness(lags []float64, p99, bound float64) (late float64, flagged bool) {
	if len(lags) == 0 {
		return 0, false
	}
	_, late = tail(append([]float64(nil), lags...), 0.99)
	return late, late > bound*p99
}
