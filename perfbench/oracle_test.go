package main

import (
	"testing"
	"time"

	"dnnlock/internal/core"
	"dnnlock/internal/farm"
	"dnnlock/internal/harness"
	"dnnlock/internal/oracle"
)

func tinyMLP(t *testing.T) *harness.Cell {
	t.Helper()
	cell, err := harness.PrepareCell("mlp", 8, harness.TinyScale(), nil)
	if err != nil {
		t.Fatalf("PrepareCell: %v", err)
	}
	return cell
}

// TestTimedOracleIsTransparent: wrapping the oracle changes neither the
// recovered key nor the query count. Rounds are compared at Workers=1 only,
// where they do not depend on goroutine scheduling.
func TestTimedOracleIsTransparent(t *testing.T) {
	cell := tinyMLP(t)
	cfg := cell.DecryptConfig()
	cfg.Workers = 1
	plain, err := core.Run(cell.WhiteBox(), cell.Spec(), cell.NewOracle(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	orc, timed := wrapOracle(cell.NewOracle(), nil)
	wrapped, err := core.Run(cell.WhiteBox(), cell.Spec(), orc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Key.HammingDistance(wrapped.Key) != 0 || plain.Queries != wrapped.Queries || plain.Rounds != wrapped.Rounds {
		t.Fatalf("wrapped run differs: key %s/%s queries %d/%d rounds %d/%d",
			plain.Key, wrapped.Key, plain.Queries, wrapped.Queries, plain.Rounds, wrapped.Rounds)
	}
	if plain.Queries != anchorQueries["mlp-8"] {
		t.Fatalf("mlp-8 seed-1 attack used %d queries, Table 1 says %d", plain.Queries, anchorQueries["mlp-8"])
	}
	st := timed.stats()
	// Against a direct oracle every call is one round and every row one query.
	if st.calls != wrapped.Rounds || st.rows != wrapped.Queries {
		t.Fatalf("decorator counted %d calls / %d rows, attack reports %d rounds / %d queries",
			st.calls, st.rows, wrapped.Rounds, wrapped.Queries)
	}
	if st.busy <= 0 || st.busy > wrapped.Time {
		t.Fatalf("busy time %v outside (0, attack time %v]", st.busy, wrapped.Time)
	}
}

// TestTimedOracleForwardsClock: over a farm transport the decorator must
// keep oracle.Clocked visible, or core reads every simulated time as 0.
func TestTimedOracleForwardsClock(t *testing.T) {
	cell := tinyMLP(t)
	ch := farm.Channel{RTT: 20 * time.Millisecond, Bandwidth: 10e6 / 8, Loss: 0.01}
	run := func(wrap bool) *core.Result {
		cfg := cell.DecryptConfig()
		cfg.Workers = 1
		tr, cfg, err := cell.FarmOracle("mixed", 1000, ch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var orc oracle.Interface = tr
		if wrap {
			orc, _ = wrapOracle(tr, nil)
			if _, ok := orc.(oracle.Clocked); !ok {
				t.Fatal("wrapped farm transport does not implement oracle.Clocked")
			}
		}
		res, err := core.Run(cell.WhiteBox(), cell.Spec(), orc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, wrapped := run(false), run(true)
	if plain.SimTime <= 0 {
		t.Fatalf("farm attack reported no simulated time")
	}
	if wrapped.SimTime != plain.SimTime || wrapped.Queries != plain.Queries || wrapped.Rounds != plain.Rounds ||
		wrapped.Key.HammingDistance(plain.Key) != 0 {
		t.Fatalf("wrapped farm run differs: sim %v/%v queries %d/%d rounds %d/%d",
			plain.SimTime, wrapped.SimTime, plain.Queries, wrapped.Queries, plain.Rounds, wrapped.Rounds)
	}
	if _, ok := any(&timedOracle{inner: cell.NewOracle()}).(oracle.Clocked); ok {
		t.Fatal("decorator over a direct oracle claims a simulated clock")
	}
}
