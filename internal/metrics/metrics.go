// Package metrics implements the paper's four evaluation metrics (§4.2):
// accuracy and fidelity live with their data (train.Evaluate, hpnn.Key
// .Fidelity); this package adds query accounting helpers and the
// per-procedure runtime breakdown behind Figure 3.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Procedure names the four attack procedures of Figure 3.
type Procedure string

// The procedures whose runtime Figure 3 breaks down.
const (
	ProcKeyBitInference     Procedure = "key_bit_inference"
	ProcLearningAttack      Procedure = "learning_attack"
	ProcKeyVectorValidation Procedure = "key_vector_validation"
	ProcErrorCorrection     Procedure = "error_correction"
)

// AllProcedures lists the Figure 3 procedures in presentation order.
var AllProcedures = []Procedure{
	ProcKeyBitInference,
	ProcLearningAttack,
	ProcKeyVectorValidation,
	ProcErrorCorrection,
}

// Breakdown accumulates wall time and oracle queries per procedure. Safe
// for concurrent use: every reader goes through one lock acquisition
// (Snapshot), so shares and totals stay mutually consistent while other
// goroutines — including a tracer rolling up spans — keep accumulating.
//
// Every attack Result retains its Breakdown, and a long run (a benchmark
// loop, a daemon's job table) retains many, so the four per-procedure
// quantities live in fixed per-procedure tallies rather than maps; the
// map-typed views (Snapshot, *ByProc) are built on demand.
type Breakdown struct {
	mu    sync.Mutex
	std   [4]tally     // the Figure 3 procedures, indexed like AllProcedures
	extra []namedTally // nonstandard procedures, in first-seen order
}

// quantity indexes the four per-procedure quantities of a tally.
type quantity uint8

const (
	qTime    quantity = iota // wall nanoseconds
	qQueries                 // oracle queries
	qRounds                  // oracle round-trips
	qSim                     // simulated channel nanoseconds
)

// tally is one procedure's four quantities. has records which quantities
// were ever accumulated (even by 0), so the map views keep the membership
// a map-backed ledger had: a procedure is present in a view exactly when
// that quantity was accumulated under it.
type tally struct {
	v   [4]int64 // by quantity
	has uint8    // bit q: quantity q was accumulated
}

type namedTally struct {
	proc Procedure
	tally
}

// stdIndex is proc's position in AllProcedures, or -1.
func stdIndex(proc Procedure) int {
	switch proc {
	case ProcKeyBitInference:
		return 0
	case ProcLearningAttack:
		return 1
	case ProcKeyVectorValidation:
		return 2
	case ProcErrorCorrection:
		return 3
	}
	return -1
}

// find returns proc's tally, or nil if it has none. Callers hold b.mu.
func (b *Breakdown) find(proc Procedure) *tally {
	if i := stdIndex(proc); i >= 0 {
		return &b.std[i]
	}
	for k := range b.extra {
		if b.extra[k].proc == proc {
			return &b.extra[k].tally
		}
	}
	return nil
}

func (b *Breakdown) add(proc Procedure, q quantity, n int64) {
	b.mu.Lock()
	t := b.find(proc)
	if t == nil {
		b.extra = append(b.extra, namedTally{proc: proc})
		t = &b.extra[len(b.extra)-1].tally
	}
	t.v[q] += n
	t.has |= 1 << q
	b.mu.Unlock()
}

func (b *Breakdown) get(proc Procedure, q quantity) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t := b.find(proc); t != nil {
		return t.v[q]
	}
	return 0
}

// each calls f for every procedure that accumulated q: the Figure 3
// procedures in order, then the others in first-seen order. Callers hold
// b.mu.
func (b *Breakdown) each(q quantity, f func(Procedure, int64)) {
	for i := range b.std {
		if b.std[i].has&(1<<q) != 0 {
			f(AllProcedures[i], b.std[i].v[q])
		}
	}
	for _, e := range b.extra {
		if e.has&(1<<q) != 0 {
			f(e.proc, e.v[q])
		}
	}
}

// size is the number of procedures that accumulated q. Callers hold b.mu.
func (b *Breakdown) size(q quantity) int {
	n := 0
	b.each(q, func(Procedure, int64) { n++ })
	return n
}

// counts copies quantity q into a map.
func (b *Breakdown) counts(q quantity) map[Procedure]int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[Procedure]int64, b.size(q))
	b.each(q, func(p Procedure, n int64) { out[p] = n })
	return out
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown { return new(Breakdown) }

// Add accumulates d under proc.
func (b *Breakdown) Add(proc Procedure, d time.Duration) {
	b.add(proc, qTime, int64(d))
}

// AddQueries accumulates n oracle queries under proc, the query-complexity
// companion to Add.
func (b *Breakdown) AddQueries(proc Procedure, n int64) {
	b.add(proc, qQueries, n)
}

// AddRounds accumulates n oracle round-trips under proc. Rounds count
// Query/QueryBatch calls rather than rows, so they are the latency-side
// companion to AddQueries' per-inference accounting.
func (b *Breakdown) AddRounds(proc Procedure, n int64) {
	b.add(proc, qRounds, n)
}

// AddSim accumulates d of simulated channel time under proc. Runs against a
// farm-simulated transport (internal/farm) attribute the virtual clock's
// advance to procedures the same way Add attributes real wall time; runs
// against a direct oracle never call this and the sim view stays empty.
func (b *Breakdown) AddSim(proc Procedure, d time.Duration) {
	b.add(proc, qSim, int64(d))
}

// Sim returns the simulated channel time accumulated under proc.
func (b *Breakdown) Sim(proc Procedure) time.Duration {
	return time.Duration(b.get(proc, qSim))
}

// SimByProc returns a copy of the per-procedure simulated channel times,
// nil when no simulated time accrued (a direct oracle).
func (b *Breakdown) SimByProc() map[Procedure]time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.size(qSim) == 0 {
		return nil
	}
	out := make(map[Procedure]time.Duration, b.size(qSim))
	b.each(qSim, func(p Procedure, n int64) { out[p] = time.Duration(n) })
	return out
}

// Queries returns the oracle queries accumulated under proc.
func (b *Breakdown) Queries(proc Procedure) int64 {
	return b.get(proc, qQueries)
}

// QueriesByProc returns a copy of the per-procedure query counts.
func (b *Breakdown) QueriesByProc() map[Procedure]int64 {
	return b.counts(qQueries)
}

// Rounds returns the oracle round-trips accumulated under proc.
func (b *Breakdown) Rounds(proc Procedure) int64 {
	return b.get(proc, qRounds)
}

// RoundsByProc returns a copy of the per-procedure round-trip counts.
func (b *Breakdown) RoundsByProc() map[Procedure]int64 {
	return b.counts(qRounds)
}

// Track runs f and accumulates its wall time under proc.
func (b *Breakdown) Track(proc Procedure, f func()) {
	start := time.Now()
	f()
	b.Add(proc, time.Since(start))
}

// Get returns the accumulated time of proc.
func (b *Breakdown) Get(proc Procedure) time.Duration {
	return time.Duration(b.get(proc, qTime))
}

// Total returns the sum over all procedures.
func (b *Breakdown) Total() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t time.Duration
	b.each(qTime, func(_ Procedure, n int64) { t += time.Duration(n) })
	return t
}

// Snapshot is a self-consistent copy of a breakdown: times, query counts,
// round counts, and their totals all observed under one lock acquisition.
type Snapshot struct {
	Times   map[Procedure]time.Duration
	Queries map[Procedure]int64
	Rounds  map[Procedure]int64
	Sim     map[Procedure]time.Duration
	Total   time.Duration
	TotalQ  int64
	TotalR  int64
	TotalS  time.Duration
}

// Snapshot copies the accumulated times, query counts, and round counts
// under one lock acquisition. Every rendering path (String, Percentages,
// the trace summary) derives from a Snapshot, so concurrent Add/AddQueries
// calls — e.g. a tracer rolling spans up while the harness prints a
// progress line — can never produce a torn view (shares above 100, queries
// without times).
func (b *Breakdown) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Snapshot{
		Times:   make(map[Procedure]time.Duration, b.size(qTime)),
		Queries: make(map[Procedure]int64, b.size(qQueries)),
		Rounds:  make(map[Procedure]int64, b.size(qRounds)),
		Sim:     make(map[Procedure]time.Duration, b.size(qSim)),
	}
	b.each(qTime, func(p Procedure, n int64) {
		s.Times[p] = time.Duration(n)
		s.Total += time.Duration(n)
	})
	b.each(qQueries, func(p Procedure, n int64) {
		s.Queries[p] = n
		s.TotalQ += n
	})
	b.each(qRounds, func(p Procedure, n int64) {
		s.Rounds[p] = n
		s.TotalR += n
	})
	b.each(qSim, func(p Procedure, n int64) {
		s.Sim[p] = time.Duration(n)
		s.TotalS += time.Duration(n)
	})
	return s
}

// Procedures lists the snapshot's procedures in deterministic render order:
// the Figure 3 procedures first, then any nonstandard ones sorted by name.
func (s Snapshot) Procedures() []Procedure {
	out := append([]Procedure(nil), AllProcedures...)
	var extra []string
	for p := range s.Times {
		if !isStandard(p) {
			extra = append(extra, string(p))
		}
	}
	for p := range s.Queries {
		if !isStandard(p) {
			if _, dup := s.Times[Procedure(p)]; !dup {
				extra = append(extra, string(p))
			}
		}
	}
	for p := range s.Rounds {
		if !isStandard(p) {
			_, inTimes := s.Times[Procedure(p)]
			_, inQueries := s.Queries[Procedure(p)]
			if !inTimes && !inQueries {
				extra = append(extra, string(p))
			}
		}
	}
	sort.Strings(extra)
	for _, p := range extra {
		out = append(out, Procedure(p))
	}
	return out
}

// Percent returns proc's share of the snapshot's total in [0, 100].
func (s Snapshot) Percent(proc Procedure) float64 {
	return share(s.Times[proc], s.Total)
}

// snapshot is the historical internal accessor, kept for the read paths
// that only need times.
func (b *Breakdown) snapshot() (map[Procedure]time.Duration, time.Duration) {
	s := b.Snapshot()
	return s.Times, s.Total
}

func share(d, total time.Duration) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(d) / float64(total)
}

// Percent returns proc's share of the total in [0, 100].
func (b *Breakdown) Percent(proc Procedure) float64 {
	times, total := b.snapshot()
	return share(times[proc], total)
}

// Percentages returns the share per procedure: every Figure 3 procedure
// (zero if never tracked) plus any nonstandard ones that accumulated time.
// All shares come from one snapshot, so they sum to 100 (or all zero).
func (b *Breakdown) Percentages() map[Procedure]float64 {
	times, total := b.snapshot()
	out := make(map[Procedure]float64, len(AllProcedures)+len(times))
	for _, p := range AllProcedures {
		out[p] = 0
	}
	for p, d := range times {
		out[p] = share(d, total)
	}
	return out
}

func isStandard(p Procedure) bool { return stdIndex(p) >= 0 }

// String renders a one-line summary: the Figure 3 procedures in
// presentation order, then any nonstandard procedures sorted by name, each
// with its share and accumulated duration. All values come from a single
// Snapshot, so the line is internally consistent even while other
// goroutines keep accumulating.
func (b *Breakdown) String() string {
	s := b.Snapshot()
	var parts []string
	for _, p := range s.Procedures() {
		d := s.Times[p]
		parts = append(parts, fmt.Sprintf("%s %.1f%% (%s)", p, s.Percent(p), d.Round(time.Millisecond)))
	}
	return strings.Join(parts, ", ")
}
