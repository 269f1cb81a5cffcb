package core

import (
	"math/rand"
	"sync"
)

// The attack's RNG streams are math/rand's: every query count, key and
// round the attack reports depends on them, so they cannot change. What
// can change is what a stream costs to start. rand.NewSource(seed) fills a
// 607-word register with ~1,840 Lehmer steps, and parallelFor used to pay
// that (plus a 4.9 KB allocation) for every work item, most of which draw
// a handful of values. lazySource yields the identical stream and pays per
// word actually touched instead.
//
// math/rand seeds its additive lagged-Fibonacci register from the Lehmer
// sequence x₀ = seed, xₙ₊₁ = 48271·xₙ mod (2³¹−1), skipping 20 states and
// then packing three states per word:
//
//	vec[i] = (x₂₁₊₃ᵢ << 40) ^ (x₂₂₊₃ᵢ << 20) ^ x₂₃₊₃ᵢ ^ rngCooked[i]
//
// Since xₙ = 48271ⁿ·seed mod (2³¹−1), any word is a closed form of the
// seed and a precomputed power table; a 10-word bitmask records which
// words the current stream has materialized, so Seed is O(1).

const (
	rngLen   = 607 // register length, as in math/rand
	rngTap   = 273 // feedback tap, as in math/rand
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus 2³¹−1

	lehmerA     = 48271
	lehmerFirst = 21                 // Lehmer index of vec[0]'s first state
	lehmerCount = 3*(rngLen-1) + 3   // states packed into the register (1,821)
	touchedLen  = (rngLen + 63) / 64 // words of the materialized-word mask
	seedZeroAlt = 89482311           // math/rand's substitute for a zero seed
)

// lehmerPow[k] is 48271^(lehmerFirst+k) mod (2³¹−1).
var lehmerPow = func() (t [lehmerCount]uint64) {
	p := uint64(1)
	for n := 0; n < lehmerFirst+lehmerCount; n++ {
		if n >= lehmerFirst {
			t[n-lehmerFirst] = p
		}
		p = p * lehmerA % int32max
	}
	return t
}()

// lazySource is a rand.Source64 whose stream equals rand.NewSource(seed)'s
// draw for draw, for every seed. Not safe for concurrent use (neither is
// math/rand's source).
type lazySource struct {
	tap, feed int
	seed      uint64 // normalized to [1, 2³¹−2], as math/rand normalizes it
	touched   [touchedLen]uint64
	vec       [rngLen]int64
}

func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed with math/rand's normalization; it
// touches no register word.
func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZeroAlt
	}
	s.seed = uint64(seed)
	s.touched = [touchedLen]uint64{}
}

// word returns register word i, computing its seeded value on first touch.
func (s *lazySource) word(i int) int64 {
	if bit := uint64(1) << (i & 63); s.touched[i>>6]&bit == 0 {
		s.touched[i>>6] |= bit
		p := lehmerPow[3*i : 3*i+3]
		u := int64(p[0]*s.seed%int32max) << 40
		u ^= int64(p[1]*s.seed%int32max) << 20
		u ^= int64(p[2] * s.seed % int32max)
		s.vec[i] = u ^ rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 is math/rand's additive lagged-Fibonacci step over the lazily
// seeded register.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit value, as math/rand's source does.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// workerRNGs recycles parallelFor's generators. A generator is re-seeded
// per work item, so what it drew for a previous item (or a previous
// parallelFor) never leaks into the next stream.
var workerRNGs = sync.Pool{New: func() any { return rand.New(newLazySource(0)) }}
