package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBreakdownAddAndPercent(t *testing.T) {
	b := NewBreakdown()
	b.Add(ProcKeyBitInference, 300*time.Millisecond)
	b.Add(ProcLearningAttack, 700*time.Millisecond)
	if b.Total() != time.Second {
		t.Fatalf("Total = %v", b.Total())
	}
	if math.Abs(b.Percent(ProcKeyBitInference)-30) > 1e-9 {
		t.Fatalf("Percent = %v", b.Percent(ProcKeyBitInference))
	}
	p := b.Percentages()
	if math.Abs(p[ProcLearningAttack]-70) > 1e-9 || p[ProcErrorCorrection] != 0 {
		t.Fatalf("Percentages = %v", p)
	}
}

func TestBreakdownEmpty(t *testing.T) {
	b := NewBreakdown()
	if b.Percent(ProcKeyBitInference) != 0 || b.Total() != 0 {
		t.Fatal("empty breakdown should be all zero")
	}
}

func TestBreakdownTrack(t *testing.T) {
	b := NewBreakdown()
	b.Track(ProcErrorCorrection, func() { time.Sleep(5 * time.Millisecond) })
	if b.Get(ProcErrorCorrection) < 4*time.Millisecond {
		t.Fatalf("Track recorded %v", b.Get(ProcErrorCorrection))
	}
}

func TestBreakdownConcurrent(t *testing.T) {
	b := NewBreakdown()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Add(ProcKeyVectorValidation, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if b.Get(ProcKeyVectorValidation) != 1600*time.Microsecond {
		t.Fatalf("concurrent total = %v", b.Get(ProcKeyVectorValidation))
	}
}

func TestBreakdownString(t *testing.T) {
	b := NewBreakdown()
	b.Add(ProcKeyBitInference, time.Second)
	b.Add(Procedure("custom"), time.Second)
	s := b.String()
	if !strings.Contains(s, "key_bit_inference") || !strings.Contains(s, "custom") {
		t.Fatalf("String = %q", s)
	}
	// Extras render in the same percent-and-duration form as the standard
	// procedures.
	if !strings.Contains(s, "custom 50.0% (1s)") {
		t.Fatalf("extra procedure missing share or duration: %q", s)
	}
}

func TestPercentagesIncludeExtras(t *testing.T) {
	b := NewBreakdown()
	b.Add(ProcKeyBitInference, 250*time.Millisecond)
	b.Add(Procedure("custom"), 750*time.Millisecond)
	p := b.Percentages()
	if math.Abs(p[Procedure("custom")]-75) > 1e-9 {
		t.Fatalf("extra procedure share = %v", p[Procedure("custom")])
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("shares sum to %v, want 100", sum)
	}
}

func TestBreakdownQueries(t *testing.T) {
	b := NewBreakdown()
	b.AddQueries(ProcKeyBitInference, 40)
	b.AddQueries(ProcKeyBitInference, 2)
	b.AddQueries(ProcLearningAttack, 100)
	if b.Queries(ProcKeyBitInference) != 42 {
		t.Fatalf("Queries = %d", b.Queries(ProcKeyBitInference))
	}
	q := b.QueriesByProc()
	if q[ProcLearningAttack] != 100 || len(q) != 2 {
		t.Fatalf("QueriesByProc = %v", q)
	}
	s := b.Snapshot()
	if s.TotalQ != 142 {
		t.Fatalf("TotalQ = %d", s.TotalQ)
	}
}

// TestSnapshotProceduresDeterministic pins the render order: the four
// Figure 3 procedures first, then extras sorted by name — including extras
// that only accumulated queries, never time.
func TestSnapshotProceduresDeterministic(t *testing.T) {
	b := NewBreakdown()
	b.Add(Procedure("zeta"), time.Millisecond)
	b.Add(Procedure("alpha"), time.Millisecond)
	b.AddQueries(Procedure("mid"), 7)
	b.Add(ProcErrorCorrection, time.Millisecond)
	got := b.Snapshot().Procedures()
	want := append(append([]Procedure{}, AllProcedures...), "alpha", "mid", "zeta")
	if len(got) != len(want) {
		t.Fatalf("Procedures = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Procedures[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestStringConsistentUnderConcurrentAdds hammers String and Snapshot while
// writers accumulate times and queries — the harness-progress-print race
// the single-lock snapshot closes. Run under -race this also checks the
// memory model, not just the arithmetic.
func TestStringConsistentUnderConcurrentAdds(t *testing.T) {
	b := NewBreakdown()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc := AllProcedures[i%len(AllProcedures)]
			for {
				select {
				case <-done:
					return
				default:
					b.Add(proc, time.Microsecond)
					b.AddQueries(proc, 3)
				}
			}
		}(i)
	}
	for i := 0; i < 500; i++ {
		if s := b.String(); !strings.Contains(s, "key_bit_inference") {
			t.Errorf("String = %q", s)
			break
		}
		snap := b.Snapshot()
		var sum time.Duration
		for _, d := range snap.Times {
			sum += d
		}
		if sum != snap.Total {
			t.Errorf("snapshot torn: times sum %v, total %v", sum, snap.Total)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestPercentConsistentUnderConcurrentAdds pins the single-snapshot fix: a
// share read while other goroutines accumulate must never exceed 100, and a
// Percentages map must always sum to 100 (or be all zero). The old
// implementation read the total and the procedure's time under separate lock
// acquisitions, so an Add landing between the two reads could push a share
// past 100.
func TestPercentConsistentUnderConcurrentAdds(t *testing.T) {
	b := NewBreakdown()
	b.Add(ProcKeyBitInference, time.Microsecond)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proc := AllProcedures[i%len(AllProcedures)]
			for {
				select {
				case <-done:
					return
				default:
					b.Add(proc, time.Microsecond)
				}
			}
		}(i)
	}
	for i := 0; i < 2000; i++ {
		if pct := b.Percent(ProcKeyBitInference); pct > 100+1e-9 {
			t.Errorf("Percent = %v > 100", pct)
			break
		}
		p := b.Percentages()
		var sum float64
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-100) > 1e-6 {
			t.Errorf("shares sum to %v, want 100", sum)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestBreakdownMembership pins the map views' membership: a procedure
// appears in a quantity's view exactly when that quantity was accumulated
// under it (a zero-valued add counts), standard and nonstandard procedures
// alike, and the sim view is nil when no simulated time accrued.
func TestBreakdownMembership(t *testing.T) {
	b := NewBreakdown()
	b.AddQueries(ProcKeyBitInference, 0)
	b.AddRounds(ProcKeyVectorValidation, 3)
	b.Add(Procedure("extra"), time.Millisecond)
	b.AddQueries(Procedure("extra"), 5)
	if sim := b.SimByProc(); sim != nil {
		t.Fatalf("SimByProc = %v, want nil with no simulated time", sim)
	}
	s := b.Snapshot()
	if len(s.Times) != 1 || s.Times["extra"] != time.Millisecond {
		t.Fatalf("Times = %v", s.Times)
	}
	if q, ok := s.Queries[ProcKeyBitInference]; !ok || q != 0 || len(s.Queries) != 2 || s.Queries["extra"] != 5 {
		t.Fatalf("Queries = %v", s.Queries)
	}
	if len(s.Rounds) != 1 || s.Rounds[ProcKeyVectorValidation] != 3 {
		t.Fatalf("Rounds = %v", s.Rounds)
	}
	if len(s.Sim) != 0 || s.TotalS != 0 {
		t.Fatalf("Sim = %v", s.Sim)
	}
	if q := b.QueriesByProc(); len(q) != 2 {
		t.Fatalf("QueriesByProc = %v", q)
	}
	if r := NewBreakdown().RoundsByProc(); r == nil {
		t.Fatal("RoundsByProc of an empty breakdown is nil, want an empty map")
	}
	b.AddSim(ProcErrorCorrection, 2*time.Second)
	if sim := b.SimByProc(); len(sim) != 1 || sim[ProcErrorCorrection] != 2*time.Second {
		t.Fatalf("SimByProc = %v", sim)
	}
}
