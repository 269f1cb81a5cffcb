package main

import (
	"math"
	"sort"
)

// inf marks a failed operation in a latency sample.
var inf = math.Inf(1)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: a percentile estimated from fewer is mostly one outlier.
const tailBeyond = 10

// sortedSample holds one latency population in ascending order. Failed
// operations are stored as +Inf: a request that never produced a correct
// result misses every latency limit, so it ranks above every success
// rather than vanishing.
type sortedSample []float64

// newSample sorts a copy of xs.
func newSample(xs []float64) sortedSample {
	s := append(sortedSample(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank returns the nearest-rank p-th percentile (p in (0, 100]): the
// smallest sample with at least p% of the population at or below it. NaN
// for an empty sample.
func (s sortedSample) rank(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(s))))
	k = min(max(k, 1), len(s))
	return s[k-1]
}

// median is the nearest-rank 50th percentile.
func (s sortedSample) median() float64 { return s.rank(50) }

// tailLadder is the percentiles the tail may be reported at, highest
// first. A fixed ladder keeps the reported percentile from drifting with
// small changes in the sample count.
var tailLadder = []float64{99, 90, 75}

// tail applies the benchmark's percentile rule: report the highest
// percentile of tailLadder that still has at least tailBeyond samples
// strictly above its rank, else the median. It returns that percentile and
// its value.
func (s sortedSample) tail() (p, v float64) {
	n := len(s)
	for _, p := range tailLadder {
		k := int(math.Ceil(p / 100 * float64(n)))
		if n-k >= tailBeyond {
			return p, s[k-1]
		}
	}
	return 50, s.median()
}

// finite replaces +Inf (a failed operation) by limit so a percentile that
// lands on a failure still prints as a number: the benchmark window length,
// the latest any answer could have arrived.
func finite(v, limit float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return limit
	}
	return v
}

// mean averages xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
