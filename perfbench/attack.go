package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dnnlock/internal/core"
	"dnnlock/internal/harness"
	"dnnlock/internal/metrics"
	"dnnlock/internal/obs"
)

// The attack-* workloads are closed loops with one client: the next attack
// starts when the previous one returned. Cells are prepared once (set-up),
// then attacked round-robin in whole passes over the cell list until the
// measurement time is spent.

// runAlgebraic repeats its set-up 9 times and runLearning 3 times; setup_s
// is the median. attack-learning trains for seconds per set-up, attack-
// algebraic for a tenth of a second.
func runAlgebraic(rc runConfig) (*report, error) {
	return runClosed(rc, "attack-algebraic", algebraicPlan(rc.seed), 9)
}

func runLearning(rc runConfig) (*report, error) {
	return runClosed(rc, "attack-learning", learningPlan(rc.seed), 3)
}

// attackRecord is one attack as the client saw it.
type attackRecord struct {
	wall time.Duration
	ok   bool
	res  *core.Result // nil when the attack returned an error
	orc  oracleStats
}

// preparedCells is one set-up of a closed-loop plan.
type preparedCells struct {
	cells   []*harness.Cell
	total   time.Duration
	byModel map[string][]float64 // PrepareCell seconds per model
}

// prepareCells trains and locks every cell of the plan, each under a
// "bench.prepare" span when tr is non-nil.
func prepareCells(p attackPlan, tr *obs.Tracer) (*preparedCells, error) {
	pc := &preparedCells{byModel: map[string][]float64{}}
	start := time.Now()
	for _, c := range p.cells {
		sc := harness.TinyScale()
		sc.Seed = c.Seed
		sp := tr.Start("bench.prepare", obs.String("cell", c.String()))
		t0 := time.Now()
		cell, err := harness.PrepareCell(c.Model, c.Bits, sc, nil)
		d := time.Since(t0)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("preparing %s: %w", c, err)
		}
		pc.cells = append(pc.cells, cell)
		pc.byModel[c.Model] = append(pc.byModel[c.Model], d.Seconds())
	}
	pc.total = time.Since(start)
	return pc, nil
}

// attackOnce runs attack i of the plan against its cell through the timing
// decorator. With a tracer, the attack runs under a "bench.attack" span
// that core's own procedure spans nest under.
func attackOnce(p attackPlan, cells []*harness.Cell, i int, tr *obs.Tracer, rep *report) attackRecord {
	ci, seed, useCellSeed := p.attackAt(i)
	ref, cell := p.cells[ci], cells[ci]
	cfg := cell.DecryptConfig()
	if !useCellSeed {
		cfg.Seed = seed
	}
	sp := tr.Start("bench.attack", obs.String("cell", ref.String()), obs.Int64("seed", cfg.Seed))
	cfg.TraceParent = sp
	orc, timed := wrapOracle(cell.NewOracle(), sp)
	white := cell.WhiteBox()

	start := time.Now()
	res, err := core.Run(white, cell.Spec(), orc, cfg)
	rec := attackRecord{wall: time.Since(start), orc: timed.stats()}
	sp.End()

	rep.attempted++
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: attack %d on %s (seed %d) failed: %v\n", i, ref, cfg.Seed, err)
	case cell.Fidelity(res.Key) < 1:
		fmt.Fprintf(os.Stderr, "perfbench: attack %d on %s (seed %d) recovered a wrong key (fidelity %.4f)\n", i, ref, cfg.Seed, cell.Fidelity(res.Key))
	case !res.Equivalent:
		fmt.Fprintf(os.Stderr, "perfbench: attack %d on %s (seed %d) failed its equivalence check\n", i, ref, cfg.Seed)
	default:
		rec.ok = true
	}
	if err == nil {
		rec.res = res
		attributed := time.Duration(0)
		for _, d := range res.Breakdown.Snapshot().Times {
			attributed += d
		}
		if attributed > rec.wall {
			rep.problem("attack %d on %s: procedure times (%v) exceed its wall time (%v)", i, ref, attributed, rec.wall)
		}
	}
	if !rec.ok {
		rep.failed++
	}
	if useCellSeed {
		want, _ := anchorFor(ref)
		if res == nil || res.Queries != want {
			got := int64(-1)
			if res != nil {
				got = res.Queries
			}
			rep.problem("Table 1 anchor %s: %d queries, want %d", ref, got, want)
		}
	}
	return rec
}

// checkTransparency pins the timing decorator: on each cheap anchored cell
// an unwrapped and a wrapped attack at Workers=1 must recover the same key
// with the same queries and rounds. (Rounds depend on the scheduler at
// higher worker counts, so they are compared only here.)
func checkTransparency(p attackPlan, cells []*harness.Cell, rep *report) {
	for ci, ref := range p.cells {
		if _, ok := anchorFor(ref); !ok || ref.Model == "resnet" {
			continue // resnet attacks take seconds; its anchor still checks queries
		}
		cfg := cells[ci].DecryptConfig()
		cfg.Workers = 1
		plain, err1 := core.Run(cells[ci].WhiteBox(), cells[ci].Spec(), cells[ci].NewOracle(), cfg)
		orc, _ := wrapOracle(cells[ci].NewOracle(), nil)
		wrapped, err2 := core.Run(cells[ci].WhiteBox(), cells[ci].Spec(), orc, cfg)
		if err1 != nil || err2 != nil {
			rep.problem("transparency run on %s: %v / %v", ref, err1, err2)
			continue
		}
		if plain.Key.HammingDistance(wrapped.Key) != 0 || plain.Queries != wrapped.Queries || plain.Rounds != wrapped.Rounds {
			rep.problem("timing decorator is not transparent on %s: key %s/%s queries %d/%d rounds %d/%d",
				ref, plain.Key, wrapped.Key, plain.Queries, wrapped.Queries, plain.Rounds, wrapped.Rounds)
		}
	}
}

// loop runs whole passes over the plan's cells, starting at attack 0,
// until limit has elapsed (n < 0) or exactly n attacks ran (n >= 0).
func loop(p attackPlan, cells []*harness.Cell, limit time.Duration, n int, tr *obs.Tracer, rep *report) ([]attackRecord, time.Duration) {
	var recs []attackRecord
	start := time.Now()
	for i := 0; ; i++ {
		if n >= 0 && i == n {
			break
		}
		if n < 0 && i%len(p.cells) == 0 && time.Since(start) >= limit {
			break
		}
		recs = append(recs, attackOnce(p, cells, i, tr, rep))
	}
	return recs, time.Since(start)
}

func runClosed(rc runConfig, name string, p attackPlan, setupReps int) (*report, error) {
	rep := &report{values: map[string]float64{}}

	var tr *traceSink
	if rc.trace {
		var err error
		if tr, err = openTrace(name, rc.seed); err != nil {
			return nil, err
		}
		defer tr.file.Close()
	}

	var setups []float64
	var pc *preparedCells
	prepare := map[string][]float64{}
	for r := 0; r < setupReps; r++ {
		pc = nil
		runtime.GC() // drop the previous set-up's cells before timing the next
		var err error
		if pc, err = prepareCells(p, tr.tracer()); err != nil {
			return nil, err
		}
		setups = append(setups, pc.total.Seconds())
		for m, xs := range pc.byModel {
			prepare[m] = append(prepare[m], xs...)
		}
	}
	checkTransparency(p, pc.cells, rep)

	if !rc.trace {
		recs, wall := loop(p, pc.cells, rc.seconds, -1, nil, rep)
		closedEndToEnd(rep, recs, wall)
		rep.values["setup_s"] = newSample(setups).median()
		rep.values["peak_heap_mb"] = rc.heap.peakMiB()
		return rep, nil
	}

	// Traced run: measure half the time untraced, then the same attacks
	// traced, with the CPU profile and runtime counters covering only the
	// traced half.
	plain, plainWall := loop(p, pc.cells, rc.seconds/2, -1, nil, rep)
	rs0 := obs.ReadRuntimeStats()
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced, tracedWall := loop(p, pc.cells, 0, len(plain), tr.tracer(), rep)
	cpu, err := prof.stop()
	if err != nil {
		return nil, err
	}
	rs1 := obs.ReadRuntimeStats()
	if err := tr.close(); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}

	v := zeroPerLayer()
	for k, x := range cpu {
		v[k] = x
	}
	closedPerLayer(v, traced, tracedWall)
	for m, xs := range prepare {
		v["harness.prepare_s."+m] = mean(xs)
	}
	v["obs.trace_overhead_ratio"] = tracedWall.Seconds() / plainWall.Seconds()
	n := float64(len(traced))
	v["runtime.alloc_mb_per_attack"] = float64(rs1.CumAllocBytes-rs0.CumAllocBytes) / (1 << 20) / n
	v["runtime.gc_cycles_per_attack"] = float64(rs1.GCCycles-rs0.GCCycles) / n
	rep.values = v
	return rep, nil
}

// closedEndToEnd fills the end-to-end metrics of a closed loop.
func closedEndToEnd(rep *report, recs []attackRecord, wall time.Duration) {
	var lat, queries, rounds []float64
	ok := 0
	for _, r := range recs {
		if !r.ok {
			lat = append(lat, inf)
			continue
		}
		ok++
		lat = append(lat, r.wall.Seconds())
		queries = append(queries, float64(r.res.Queries))
		rounds = append(rounds, float64(r.res.Rounds))
	}
	s := newSample(lat)
	p, tail := s.tail()
	limit := wall.Seconds()
	rep.values["attacks_per_s"] = float64(ok) / wall.Seconds()
	rep.values["attack_s.p50"] = finite(s.median(), limit)
	rep.values["attack_s.tail"] = finite(tail, limit)
	rep.values["queries_per_attack"] = mean(queries)
	rep.values["rounds_per_attack"] = mean(rounds)
	rep.values["success_ratio"] = float64(ok) / float64(len(recs))
	fmt.Printf("# attacks=%d ok=%d wall=%.3fs tail=p%.2f over n=%d\n", len(recs), ok, wall.Seconds(), p, len(s))
}

// closedPerLayer fills the core and oracle metrics from the traced attacks:
// means per attack, with unattributed time closing each attack's Figure 3
// rows to its wall time.
func closedPerLayer(v map[string]float64, recs []attackRecord, wall time.Duration) {
	var n, fallbacks int
	var calls, rows int64
	var busy time.Duration
	var procSum time.Duration
	for _, r := range recs {
		calls += r.orc.calls
		rows += r.orc.rows
		busy += r.orc.busy
		if r.res == nil {
			continue
		}
		n++
		snap := r.res.Breakdown.Snapshot()
		var attributed time.Duration
		for _, proc := range metrics.AllProcedures {
			s := procSuffix[proc]
			v["core."+s+"_s"] += snap.Times[proc].Seconds()
			v["core.queries."+s] += float64(r.res.QueriesByProc[proc])
			v["core.rounds."+s] += float64(r.res.RoundsByProc[proc])
			attributed += snap.Times[proc]
		}
		procSum += attributed
		v["core.attack_s"] += r.wall.Seconds()
		v["core.bisect_rounds"] += float64(r.res.BisectRounds)
		v["core.bisect_probes"] += float64(r.res.BisectProbes)
		for _, o := range r.res.Origins {
			if o == core.OriginLearning {
				fallbacks++
				break
			}
		}
	}
	if n == 0 {
		return
	}
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "core.") {
			v[m.name] /= float64(n)
		}
	}
	v["core.unattributed_s"] = v["core.attack_s"] - procSum.Seconds()/float64(n)
	v["core.learning_fallback_ratio"] = float64(fallbacks) / float64(n)
	total := float64(len(recs))
	v["oracle.calls_per_attack"] = float64(calls) / total
	if calls > 0 {
		v["oracle.rows_per_call"] = float64(rows) / float64(calls)
	}
	v["oracle.busy_s"] = busy.Seconds() / total
	v["oracle.busy_share"] = busy.Seconds() / wall.Seconds()
}

// traceSink is the tracer of a traced run and the JSONL file its spans
// stream to.
type traceSink struct {
	*obs.Tracer
	file *os.File
	buf  *bufio.Writer
}

// openTrace opens the span sink of a traced run under .bench_build, the
// build directory of the checkout.
func openTrace(workload string, seed int64) (*traceSink, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return nil, fmt.Errorf("creating trace file: %w", err)
	}
	buf := bufio.NewWriterSize(f, 1<<20)
	return &traceSink{Tracer: obs.New(obs.WithSink(buf)), file: f, buf: buf}, nil
}

// close flushes every span to the file.
func (t *traceSink) close() error {
	return errors.Join(t.Tracer.Close(), t.buf.Flush(), t.file.Close())
}

// tracer is the sink's tracer, nil for an untraced run.
func (t *traceSink) tracer() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.Tracer
}
