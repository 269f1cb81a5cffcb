package main

import (
	"sync"
	"sync/atomic"
	"time"

	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
	"dnnlock/internal/tensor"
)

// timedOracle is the benchmark's view of the oracle layer: a transparent
// decorator that counts round-trips and rows and records the time at least
// one call was in flight. Concurrent calls overlap, so busy time is the
// union of call intervals, never more than the wall time it spans. When a
// span is attached, each call is recorded as a child span of it.
type timedOracle struct {
	inner oracle.Interface
	span  *obs.Span

	calls atomic.Int64
	rows  atomic.Int64

	mu       sync.Mutex
	inflight int
	since    time.Time
	busy     time.Duration
}

// clockedOracle is a timedOracle over a simulated channel. Core prices
// phases by asserting oracle.Clocked on the oracle it is handed, so a
// decorator that hid SimElapsed would silently zero every simulated time.
type clockedOracle struct {
	*timedOracle
	clock oracle.Clocked
}

// SimElapsed forwards the inner channel's simulated clock.
func (c clockedOracle) SimElapsed() time.Duration { return c.clock.SimElapsed() }

// wrapOracle decorates inner. The returned Interface is what the attack
// should be given; the *timedOracle reads the counters.
func wrapOracle(inner oracle.Interface, span *obs.Span) (oracle.Interface, *timedOracle) {
	t := &timedOracle{inner: inner, span: span}
	if c, ok := inner.(oracle.Clocked); ok {
		return clockedOracle{timedOracle: t, clock: c}, t
	}
	return t, t
}

func (t *timedOracle) enter(rows int) *obs.Span {
	t.calls.Add(1)
	t.rows.Add(int64(rows))
	t.mu.Lock()
	if t.inflight == 0 {
		t.since = time.Now()
	}
	t.inflight++
	t.mu.Unlock()
	return t.span.Child("oracle.call", obs.Int("rows", rows))
}

func (t *timedOracle) leave(sp *obs.Span, err error) {
	t.mu.Lock()
	t.inflight--
	if t.inflight == 0 {
		t.busy += time.Since(t.since)
	}
	t.mu.Unlock()
	if err != nil {
		sp.End(obs.String("error", err.Error()))
		return
	}
	sp.End()
}

// Query forwards one inference.
func (t *timedOracle) Query(x []float64) ([]float64, error) {
	sp := t.enter(1)
	y, err := t.inner.Query(x)
	t.leave(sp, err)
	return y, err
}

// QueryBatch forwards one batched round-trip.
func (t *timedOracle) QueryBatch(x *tensor.Matrix) (*tensor.Matrix, error) {
	sp := t.enter(x.Rows)
	y, err := t.inner.QueryBatch(x)
	t.leave(sp, err)
	return y, err
}

// Queries forwards the inner counter: the decorator adds no queries.
func (t *timedOracle) Queries() int64 { return t.inner.Queries() }

// Rounds forwards the inner counter: the decorator adds no round-trips.
func (t *timedOracle) Rounds() int64 { return t.inner.Rounds() }

// ResetCounter forwards to the inner stack and zeroes the decorator's own
// counts, as the Interface contract requires of every layer.
func (t *timedOracle) ResetCounter() {
	t.inner.ResetCounter()
	t.calls.Store(0)
	t.rows.Store(0)
	t.mu.Lock()
	t.busy = 0
	t.mu.Unlock()
}

// Softmax forwards the response mode.
func (t *timedOracle) Softmax() bool { return t.inner.Softmax() }

// oracleStats is one snapshot of the decorator's counters.
type oracleStats struct {
	calls, rows int64
	busy        time.Duration
}

// stats reads the counters. Call it after the attack returned: busy time of
// calls still in flight is not included.
func (t *timedOracle) stats() oracleStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return oracleStats{calls: t.calls.Load(), rows: t.rows.Load(), busy: t.busy}
}
