package tensor

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestVecPoolSteadyStateAllocFree pins the workspace-pool contract the
// allocation-free probe path relies on: once warm, a GetVec/PutVec pair
// allocates nothing — PutVec reuses a parked slice header instead of
// boxing a new one.
func TestVecPoolSteadyStateAllocFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	PutVec(GetVec(64)) // warm the pool and the header pool
	allocs := testing.AllocsPerRun(200, func() {
		v := GetVec(64)
		v[0] = 1
		PutVec(v)
	})
	if allocs != 0 {
		t.Fatalf("GetVec/PutVec pair allocates %.1f times per call, want 0", allocs)
	}
}

// TestGetVecKeepsSmallBuffers pins that a pooled slice too small for a
// request is neither handed out for it nor dropped: a large request leaves
// it pooled and a later small request reuses it. One P makes the pool's
// per-P slots deterministic for the duration of the test.
func TestGetVecKeepsSmallBuffers(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for vecPools[3].Get() != nil { // empty the class small lands in
	}
	small := make([]float64, 4, 8)
	PutVec(small)
	big := GetVec(1 << 12)
	if cap(big) < 1<<12 {
		t.Fatalf("GetVec(4096) returned cap %d", cap(big))
	}
	got := GetVec(8)
	if &got[:1][0] != &small[:1][0] {
		t.Fatal("the small pooled buffer was dropped instead of being reused")
	}
	odd := GetVec(5)
	if len(odd) != 5 || cap(odd) < 5 {
		t.Fatalf("GetVec(5) = len %d cap %d", len(odd), cap(odd))
	}
	PutVec(got)
	PutVec(odd)
	PutVec(big)
}

// raceEnabled reports a -race build. sync.Pool drops a random share of
// Puts under the race detector, so allocation counts mean nothing there.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
