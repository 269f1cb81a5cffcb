package core

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// rngSeeds covers math/rand's seed normalization corners: zero (replaced
// by a fixed seed), negatives, multiples of the Lehmer modulus (which
// normalize to zero), values one off them, the int64 extremes, plus a
// batch of random seeds.
func rngSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 42, -42,
		int32max, -int32max, 2 * int32max, 7 * int32max, -3 * int32max,
		int32max - 1, int32max + 1, -int32max + 1, -int32max - 1,
		math.MaxInt32, math.MinInt32,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	}
	gen := rand.New(rand.NewSource(20260818))
	for i := 0; i < 24; i++ {
		seeds = append(seeds, gen.Int63()-gen.Int63())
	}
	return seeds
}

// drawMix consumes a stream through every derivation the attack uses and
// records what it saw. n rounds of the mix draw well past 2·607 raw
// values, so the lagged-Fibonacci register wraps at least twice and reads
// words written by earlier draws, not only lazily seeded ones.
func drawMix(r *rand.Rand, rounds int) []float64 {
	var out []float64
	for k := 0; k < rounds; k++ {
		out = append(out,
			float64(r.Int63()),
			float64(r.Uint64()>>11),
			float64(r.Intn(1+k*7919)),
			float64(r.Int63n(int64(1)<<40+int64(k))),
			r.Float64(),
			r.NormFloat64(),
			r.ExpFloat64(),
		)
		for _, v := range r.Perm(1 + k%13) {
			out = append(out, float64(v))
		}
	}
	return out
}

// TestLazySourceMatchesMathRand pins the stream identity every query count
// in the repository rests on: rand.New over a lazySource draws exactly
// what rand.New(rand.NewSource(seed)) draws, for every derivation, every
// seed class, and well past two register wraps.
func TestLazySourceMatchesMathRand(t *testing.T) {
	const rounds = 150 // ~2,000+ raw draws per seed
	for _, seed := range rngSeeds() {
		want := drawMix(rand.New(rand.NewSource(seed)), rounds)
		got := drawMix(rand.New(newLazySource(seed)), rounds)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d draws, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: draw %d = %v, want %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestLazySourceReseed pins that Seed fully restarts the stream: a source
// re-seeded after arbitrary use (the pooled parallelFor generators) draws
// the same as a fresh one, including words the previous stream touched.
func TestLazySourceReseed(t *testing.T) {
	src := newLazySource(99)
	r := rand.New(src)
	for _, seed := range rngSeeds() {
		drawMix(r, int(uint64(seed)%40)) // dirty a seed-dependent prefix of the register
		r.Seed(seed)
		want := drawMix(rand.New(rand.NewSource(seed)), 100)
		got := drawMix(r, 100)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("re-seeded %d: draw %d = %v, want %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestParallelForStreams pins parallelFor's seeding contract at several
// worker counts: item i sees exactly the stream of
// rand.New(rand.NewSource(seedBase+i)), however items land on workers and
// whatever the pooled generator drew before.
func TestParallelForStreams(t *testing.T) {
	const n = 29
	const seedBase = -7
	want := make([][]float64, n)
	for i := range want {
		want[i] = drawMix(rand.New(rand.NewSource(seedBase+int64(i))), 1+i%5)
	}
	for _, workers := range []int{1, 2, 4} {
		a := &Attack{cfg: Config{Workers: workers}}
		got := make([][]float64, n)
		var calls atomic.Int64
		a.parallelFor(n, seedBase, func(i int, rng *rand.Rand) {
			calls.Add(1)
			got[i] = drawMix(rng, 1+i%5)
		})
		if calls.Load() != n {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls.Load(), n)
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d item %d: %d draws, want %d", workers, i, len(got[i]), len(want[i]))
			}
			for k := range want[i] {
				if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
					t.Fatalf("workers=%d item %d: draw %d = %v, want %v", workers, i, k, got[i][k], want[i][k])
				}
			}
		}
	}
}
