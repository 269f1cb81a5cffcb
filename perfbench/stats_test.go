package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // unsorted on purpose
	}
	return xs
}

func TestTailRuleKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{1000, 99, 990}, // exactly 10 beyond p99
		{999, 90, 900},  // p99 would leave 9
		{100, 90, 90},
		{99, 75, 75}, // p90 would leave 9
		{40, 75, 30},
		{39, 50, 20}, // p75 would leave 9: fall back to the median
		{1, 50, 1},
	} {
		p, v := newSample(ramp(c.n)).tail()
		if p != c.wantP || v != c.wantV {
			t.Errorf("n=%d: tail = p%v %v, want p%v %v", c.n, p, v, c.wantP, c.wantV)
		}
		if p > 50 {
			k := int(math.Ceil(p / 100 * float64(c.n)))
			if beyond := c.n - k; beyond < tailBeyond {
				t.Errorf("n=%d: p%v leaves %d samples beyond, want >= %d", c.n, p, beyond, tailBeyond)
			}
		}
	}
}

func TestFailuresRankAboveEverySuccess(t *testing.T) {
	xs := ramp(989)
	for i := 0; i < 11; i++ {
		xs = append(xs, inf)
	}
	s := newSample(xs)
	p, v := s.tail()
	if p != 99 || !math.IsInf(v, 1) {
		t.Fatalf("with 11 failures in 1000 the p99 must be a failure, got p%v %v", p, v)
	}
	if got := finite(v, 30); got != 30 {
		t.Fatalf("a failed percentile must print as the window length, got %v", got)
	}
	if m := s.median(); m != 500 {
		t.Fatalf("median = %v, want 500", m)
	}
}
