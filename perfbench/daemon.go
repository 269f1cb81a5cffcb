package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnnlock/internal/metrics"
	"dnnlock/internal/obs"
	"dnnlock/internal/service"
)

// daemon-mixed is an open loop against an in-process dnnlockd with the
// default service.Config: jobs are submitted on a seeded schedule whatever
// the backlog, and each job's latency runs from its due time to the
// server-side finished_at stamp, so neither a late generator nor the poll
// interval hides a stall.

const (
	// daemonSetupReps is how many times set-up (start a daemon, warm the
	// shared cells) is repeated; setup_s is the median.
	daemonSetupReps = 7
	// pollEvery is the client's status poll interval. Latency comes from
	// server timestamps, so it only bounds how soon the client notices.
	pollEvery = 20 * time.Millisecond
	// drainTimeout bounds the wait for jobs still unfinished when the
	// schedule ends; jobs not done by then count as failed.
	drainTimeout = 60 * time.Second
	// retryEvery is how soon a sender resubmits a job refused with 429. The
	// daemon's Retry-After (5 s) would stretch the measured window by up to
	// its length; a short retry keeps a refusal's cost in the job's
	// due-time latency and in service.rejected.
	retryEvery = 20 * time.Millisecond
	// sloLimit is the p90 job latency a rate step must meet to count
	// towards slo_jobs_per_s.
	sloLimit = 2 * time.Second
)

// daemonClient talks to the daemon over HTTP with at most nproc
// connections.
type daemonClient struct {
	base  string
	http  *http.Client
	tr    *obs.Tracer // nil for an untraced run
	polls atomic.Int64
	// retryFor is how long after its due time a refused job is still
	// resubmitted; after that it counts as failed.
	retryFor time.Duration
}

func newDaemonClient(base string) *daemonClient {
	n := runtime.NumCPU()
	return &daemonClient{base: base, retryFor: drainTimeout, http: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
	}}
}

// do runs one request under a "bench.http" span and decodes a JSON reply
// into out (when non-nil and the status is 2xx).
func (c *daemonClient) do(method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(raw)
	}
	sp := c.tr.Start("bench.http", obs.String("method", method), obs.String("path", path))
	defer sp.End()
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func (c *daemonClient) get(id string) (service.JobView, error) {
	c.polls.Add(1)
	var v service.JobView
	st, err := c.do(http.MethodGet, "/jobs/"+id, nil, &v)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("GET /jobs/%s: status %d", id, st)
	}
	return v, err
}

// rejected reads the daemon's cumulative 429 count from /metrics.
func (c *daemonClient) rejected() (int64, error) {
	var m struct {
		Jobs struct {
			Rejected int64 `json:"rejected"`
		} `json:"jobs"`
	}
	if _, err := c.do(http.MethodGet, "/metrics", nil, &m); err != nil {
		return 0, fmt.Errorf("reading /metrics: %w", err)
	}
	return m.Jobs.Rejected, nil
}

// terminal reports whether a job state is final.
func terminal(s service.State) bool {
	return s == service.StateCompleted || s == service.StateFailed || s == service.StateCancelled
}

// daemonInstance is one in-process dnnlockd behind an httptest server.
type daemonInstance struct {
	srv *service.Server
	ts  *httptest.Server
	c   *daemonClient
}

func startDaemon() (*daemonInstance, error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	return &daemonInstance{srv: srv, ts: ts, c: newDaemonClient(ts.URL)}, nil
}

// close drains the daemon's workers and stops its HTTP server.
func (d *daemonInstance) close() {
	d.srv.Drain(drainTimeout)
	d.ts.Close()
}

// jobOutcome is one job as the open-loop client saw it.
type jobOutcome struct {
	arr       arrival
	due, sent time.Time
	submit    time.Duration // round-trip of the accepted (or last) POST /jobs
	refusals  int           // 429s from a full shard queue before acceptance
	refused   bool          // still refused retryFor after its due time
	err       error         // transport error or unexpected status
	id        string
	view      *service.JobView // final view, nil unless the job ended in time
}

// ok reports whether the job produced a correct, exact result.
func (o *jobOutcome) ok() bool {
	v := o.view
	// Monolithic jobs run no final equivalence check (core.Monolithic
	// leaves Equivalent unset), so only decrypt jobs must report it.
	return v != nil && v.State == service.StateCompleted && v.Result != nil &&
		v.Result.Fidelity >= 1 && (v.Result.Equivalent || o.arr.spec.Kind != service.KindDecrypt)
}

// latency is due time to server-side finish, +Inf for a job that failed,
// was refused or did not finish.
func (o *jobOutcome) latency() float64 {
	if !o.ok() || o.view.Finished == nil {
		return inf
	}
	return o.view.Finished.Sub(o.due).Seconds()
}

// runSeconds is the server-side run time (started_at to finished_at).
func (o *jobOutcome) runSeconds() (float64, bool) {
	v := o.view
	if v == nil || v.Started == nil || v.Finished == nil {
		return 0, false
	}
	return v.Finished.Sub(*v.Started).Seconds(), true
}

// submit posts a job, resubmitting it every retryEvery while the daemon
// answers 429, and records the refusals and the last POST's round-trip.
func (c *daemonClient) submit(o *jobOutcome) (v service.JobView, st int, err error) {
	for retry := true; retry; {
		t0 := time.Now()
		st, err = c.do(http.MethodPost, "/jobs", o.arr.spec, &v)
		o.submit = time.Since(t0)
		if err != nil || st != http.StatusTooManyRequests {
			return v, st, err
		}
		o.refusals++
		o.refused = time.Since(o.due) >= c.retryFor
		if retry = !o.refused; retry {
			time.Sleep(retryEvery)
		}
	}
	return v, st, nil
}

// openLoop submits sched against the daemon: one scheduler sleeping until
// each due time, nproc senders (one per connection), one poller. A send
// that finds every sender busy goes out late; its lag is recorded and its
// latency still counts from the due time. A sender answered with 429
// resubmits the job every retryEvery until it is accepted, as a client
// honouring backpressure would; the job fails only if it is still refused
// retryFor after its due time.
func openLoop(c *daemonClient, sched []arrival) ([]*jobOutcome, time.Time) {
	outs := make([]*jobOutcome, len(sched))
	for i, a := range sched {
		outs[i] = &jobOutcome{arr: a}
	}
	var (
		mu      sync.Mutex
		pending = map[int]bool{} // outcome indexes of accepted, unfinished jobs
	)
	sendq := make(chan int)
	var senders sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		senders.Add(1)
		//lint:ignore nakedgo one sender per client connection, bounded by nproc; each ends when sendq is closed and openLoop waits for all
		go func() {
			defer senders.Done()
			for i := range sendq {
				o := outs[i]
				o.sent = time.Now()
				v, st, err := c.submit(o)
				switch {
				case err != nil:
					o.err = err
				case o.refused:
				case st != http.StatusAccepted:
					o.err = fmt.Errorf("POST /jobs: status %d", st)
				default:
					o.id = v.ID
					mu.Lock()
					pending[i] = true
					mu.Unlock()
				}
			}
		}()
	}
	var sendersDone atomic.Bool
	pollerDone := make(chan struct{})
	start := time.Now()
	//lint:ignore nakedgo the open loop needs its own poller beside the senders; it exits once every job ended or drainTimeout passed, and openLoop waits for it
	go func() {
		defer close(pollerDone)
		var deadline time.Time
		for left := 1; left > 0 && (deadline.IsZero() || time.Now().Before(deadline)); {
			time.Sleep(pollEvery)
			if deadline.IsZero() && sendersDone.Load() {
				deadline = time.Now().Add(drainTimeout)
			}
			mu.Lock()
			ids := make([]int, 0, len(pending))
			for i := range pending {
				ids = append(ids, i)
			}
			mu.Unlock()
			sort.Ints(ids)
			for _, i := range ids {
				v, err := c.get(outs[i].id)
				if err != nil || !terminal(v.State) {
					continue
				}
				outs[i].view = &v
				mu.Lock()
				delete(pending, i)
				mu.Unlock()
			}
			mu.Lock()
			left = len(pending)
			mu.Unlock()
			if deadline.IsZero() {
				left = max(left, 1) // senders may still add jobs
			}
		}
	}()
	for i, a := range sched {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		outs[i].due = due
		sendq <- i
	}
	close(sendq)
	senders.Wait()
	sendersDone.Store(true)
	<-pollerDone
	return outs, start
}

// warmDaemon starts a daemon and trains its shared cells through one
// direct decrypt job each, returning the instance, the set-up time and the
// warm-up jobs.
func warmDaemon() (*daemonInstance, time.Duration, []*jobOutcome, error) {
	start := time.Now()
	d, err := startDaemon()
	if err != nil {
		return nil, 0, nil, err
	}
	var sched []arrival
	for _, c := range warmCells() {
		sched = append(sched, arrival{class: "warm-" + c.Model, spec: service.JobSpec{
			Kind: service.KindDecrypt, Model: c.Model, KeyBits: c.Bits, Seed: c.Seed}})
	}
	outs, _ := openLoop(d.c, sched)
	// Set-up ends when the last warm-up job finished on the server, not when
	// the client's next poll noticed it.
	end := start
	for _, o := range outs {
		if o.view != nil && o.view.Finished != nil && o.view.Finished.After(end) {
			end = *o.view.Finished
		}
	}
	return d, end.Sub(start), outs, nil
}

// checkJobs counts failures and checks anchors: every direct decrypt job
// on a seed-1 cell runs the cell's unchanged DecryptConfig, so it must
// reproduce the Table 1 query count.
func checkJobs(outs []*jobOutcome, rep *report) {
	for _, o := range outs {
		rep.attempted++
		if !o.ok() {
			rep.failed++
			why := "did not finish in time"
			switch {
			case o.refused:
				why = fmt.Sprintf("refused with 429 on all %d submits", o.refusals)
			case o.err != nil:
				why = o.err.Error()
			case o.view != nil:
				why = fmt.Sprintf("state %s, error %q", o.view.State, o.view.Error)
				if r := o.view.Result; r != nil {
					why += fmt.Sprintf(", fidelity %.4f, equivalent %v", r.Fidelity, r.Equivalent)
				}
			}
			fmt.Fprintf(os.Stderr, "perfbench: job %s (%s) failed: %s\n", o.id, o.arr.class, why)
		}
		s := o.arr.spec
		if s.Kind != service.KindDecrypt || s.Oracle.Channel != "" || o.view == nil || o.view.Result == nil {
			continue
		}
		if want, ok := anchorFor(cellRef{s.Model, s.KeyBits, s.Seed}); ok && o.view.Result.Queries != want {
			rep.problem("Table 1 anchor %s-%d via daemon: %d queries, want %d", s.Model, s.KeyBits, o.view.Result.Queries, want)
		}
	}
}

func runDaemon(rc runConfig) (*report, error) {
	rep := &report{values: map[string]float64{}}
	var setups []float64
	var d *daemonInstance
	prepare := map[string][]float64{}
	for r := 0; r < daemonSetupReps; r++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		var warm []*jobOutcome
		var took time.Duration
		var err error
		if d, took, warm, err = warmDaemon(); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		checkJobs(warm, rep)
		for _, o := range warm {
			// Training happens in the job, before the attack's own clock
			// starts: run time minus attack wall time is the cell's set-up.
			if run, ok := o.runSeconds(); ok && o.view.Result != nil {
				prepare[o.arr.spec.Model] = append(prepare[o.arr.spec.Model], run-o.view.Result.WallSeconds)
			}
		}
	}
	defer d.close()

	if !rc.trace {
		outs, start := openLoop(d.c, daemonSchedule(rc.seed, rc.seconds/2, 0))
		checkJobs(outs, rep)
		daemonEndToEnd(rep.values, outs, start)
		rep.values["setup_s"] = newSample(setups).median()
		rep.values["peak_heap_mb"] = rc.heap.peakMiB()
		return rep, nil
	}

	// Traced run: the same schedule shape at half length untraced, then
	// traced. The traced half uses its own never-seen seeds, so its fresh
	// jobs still miss the cell cache.
	step := rc.seconds / 4
	plain, _ := openLoop(d.c, daemonSchedule(rc.seed, step, 0))
	checkJobs(plain, rep)

	ts, err := openTrace("daemon-mixed", rc.seed)
	if err != nil {
		return nil, err
	}
	defer ts.file.Close()
	d.c.tr = ts.Tracer
	polls0 := d.c.polls.Load()
	rej0, err := d.c.rejected()
	if err != nil {
		return nil, err
	}
	rs0 := obs.ReadRuntimeStats()
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced, start := openLoop(d.c, daemonSchedule(rc.seed, step, 1_000_000))
	cpu, err := prof.stop()
	if err != nil {
		return nil, err
	}
	rs1 := obs.ReadRuntimeStats()
	checkJobs(traced, rep)

	v := zeroPerLayer()
	for k, x := range cpu {
		v[k] = x
	}
	for m, xs := range prepare {
		v["harness.prepare_s."+m] = mean(xs)
	}
	if err := daemonPerLayer(v, d.c, traced, start, step); err != nil {
		return nil, err
	}
	// The daemon's own refusal counter must agree with the client's.
	if rej1, err := d.c.rejected(); err != nil {
		return nil, err
	} else if rej1-rej0 != int64(v["service.rejected"]) {
		rep.problem("/metrics counts %d refusals during the traced half, the client saw %v", rej1-rej0, v["service.rejected"])
	}
	d.c.tr = nil
	if err := ts.close(); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	v["client.polls"] = float64(d.c.polls.Load() - polls0)
	v["obs.trace_overhead_ratio"] = sumRun(traced) / sumRun(plain)
	n := float64(len(traced))
	v["runtime.alloc_mb_per_attack"] = float64(rs1.CumAllocBytes-rs0.CumAllocBytes) / (1 << 20) / n
	v["runtime.gc_cycles_per_attack"] = float64(rs1.GCCycles-rs0.GCCycles) / n
	rep.values = v
	return rep, nil
}

// sumRun totals the server-side run time of finished jobs.
func sumRun(outs []*jobOutcome) float64 {
	t := 0.0
	for _, o := range outs {
		if r, ok := o.runSeconds(); ok {
			t += r
		}
	}
	return t
}

// daemonEndToEnd fills the end-to-end metrics. attack_s is the time the
// daemon spends running one job (started_at to finished_at), the daemon's
// counterpart of a closed loop's core.Run time, over the light step. The
// latency a user waits from the due time adds queueing, which turns a brief
// CPU stall on a shared host into dozens of late jobs: its p90 spread by
// half between runs, so it is a per-layer metric (job_latency_s.*).
func daemonEndToEnd(v map[string]float64, outs []*jobOutcome, start time.Time) {
	var queries, rounds []float64
	ok := 0
	last := start
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		ok++
		if o.view.Finished.After(last) {
			last = *o.view.Finished
		}
		if o.arr.spec.Kind == service.KindDecrypt {
			queries = append(queries, float64(o.view.Result.Queries))
			rounds = append(rounds, float64(o.view.Result.Rounds))
		}
	}
	window := last.Sub(start).Seconds()
	var runs []float64
	for _, o := range outs {
		if o.arr.step != 0 {
			continue
		}
		r, finished := o.runSeconds()
		if !o.ok() || !finished {
			r = inf
		}
		runs = append(runs, r)
	}
	s := newSample(runs)
	p, tail := s.tail()
	v["attacks_per_s"] = float64(ok) / window
	v["attack_s.p50"] = finite(s.median(), window)
	v["attack_s.tail"] = finite(tail, window)
	v["queries_per_attack"] = mean(queries)
	v["rounds_per_attack"] = mean(rounds)
	v["success_ratio"] = float64(ok) / float64(len(outs))
	fmt.Printf("# jobs=%d ok=%d window=%.3fs tail=p%.2f over n=%d (%s step)\n", len(outs), ok, window, p, len(s), rateSteps[0].name)
	for si, st := range rateSteps {
		sl := stepLatency(outs, si)
		fmt.Printf("# step %s (%.0f jobs/s): p50=%.4fs p90=%.4fs n=%d\n", st.name, st.rate, sl.median(), sl.rank(90), len(sl))
	}
}

// stepLatency is the latency sample of one rate step.
func stepLatency(outs []*jobOutcome, step int) sortedSample {
	var xs []float64
	for _, o := range outs {
		if o.arr.step == step {
			xs = append(xs, o.latency())
		}
	}
	return newSample(xs)
}

// stepMeetsSLO reports whether a rate step met the latency limit without a
// growing backlog, and the rate it completed jobs at. The backlog grows
// when more of the step's jobs are unfinished at its end than the rate
// times the limit (Little's law bound on jobs in flight within the limit).
func stepMeetsSLO(outs []*jobOutcome, step int, start time.Time, stepLen time.Duration) (bool, float64) {
	from := start.Add(time.Duration(step) * stepLen)
	end := from.Add(stepLen)
	outstanding, ok := 0, 0
	last := from
	for _, o := range outs {
		if o.arr.step != step {
			continue
		}
		if !o.ok() || o.view.Finished.After(end) {
			outstanding++
		}
		if o.ok() {
			ok++
			if o.view.Finished.After(last) {
				last = *o.view.Finished
			}
		}
	}
	rate := rateSteps[step].rate
	sl := stepLatency(outs, step)
	meets := sl.rank(90) <= sloLimit.Seconds() && float64(outstanding) <= rate*sloLimit.Seconds()
	return meets, float64(ok) / last.Sub(from).Seconds()
}

// daemonPerLayer fills the service, farm, core and client metrics of the
// traced half from client timings, JobView timestamps, job traces and
// /metrics.
func daemonPerLayer(v map[string]float64, c *daemonClient, outs []*jobOutcome, start time.Time, stepLen time.Duration) error {
	var submit, wait, run, cached, fresh, lag, farmSim, farmRounds []float64
	refused := 0
	var calls, rows float64
	decrypts := 0.0
	for _, o := range outs {
		submit = append(submit, o.submit.Seconds())
		lag = append(lag, o.sent.Sub(o.due).Seconds())
		refused += o.refusals
		vw := o.view
		if vw == nil || vw.Started == nil {
			continue
		}
		wait = append(wait, vw.Started.Sub(vw.Submitted).Seconds())
		r, _ := o.runSeconds()
		run = append(run, r)
		switch o.arr.class {
		case "mlp-direct":
			cached = append(cached, r)
		case "mlp-fresh":
			fresh = append(fresh, r)
		}
		if !o.ok() {
			continue
		}
		if o.arr.spec.Oracle.Channel == "farm" {
			farmSim = append(farmSim, vw.Result.SimSeconds)
			farmRounds = append(farmRounds, float64(vw.Result.Rounds))
		}
		if o.arr.spec.Kind != service.KindDecrypt {
			continue
		}
		decrypts++
		calls += float64(vw.Result.Rounds)
		rows += float64(vw.Result.Queries)
		if err := addJobTrace(v, c, o); err != nil {
			return err
		}
	}
	if decrypts > 0 {
		for _, m := range perLayer {
			if strings.HasPrefix(m.name, "core.") {
				v[m.name] /= decrypts
			}
		}
		v["oracle.calls_per_attack"] = calls / decrypts
		v["oracle.rows_per_call"] = rows / calls
	}
	if len(farmSim) > 0 {
		v["sim_attack_s.p50"] = newSample(farmSim).median()
		v["farm.sim_s.p90"] = newSample(farmSim).rank(90)
		v["farm.rounds_per_job"] = mean(farmRounds)
	}
	v["service.submit_s.p50"] = newSample(submit).median()
	v["service.queue_wait_s.p50"] = newSample(wait).median()
	v["service.queue_wait_s.p90"] = newSample(wait).rank(90)
	v["service.run_s.p50"] = newSample(run).median()
	v["service.run_s.p90"] = newSample(run).rank(90)
	v["service.run_s.cached_cell.p50"] = newSample(cached).median()
	v["service.run_s.fresh_cell.p50"] = newSample(fresh).median()
	v["service.rejected"] = float64(refused)
	v["service.backlog_max"] = float64(maxQueued(outs))
	v["client.lag_s.p99"] = newSample(lag).rank(99)

	best := 0.0
	for si, st := range rateSteps {
		sl := stepLatency(outs, si)
		limit := stepLen.Seconds() + drainTimeout.Seconds()
		v["job_latency_s.p50."+st.name] = finite(sl.median(), limit)
		v["job_latency_s.p90."+st.name] = finite(sl.rank(90), limit)
		if meets, rate := stepMeetsSLO(outs, si, start, stepLen); meets {
			best = rate
		}
	}
	v["slo_jobs_per_s"] = best
	return nil
}

// maxQueued is the largest number of accepted jobs waiting for a worker at
// once, from submitted_at/started_at stamps.
func maxQueued(outs []*jobOutcome) int {
	type ev struct {
		t time.Time
		d int
	}
	var evs []ev
	for _, o := range outs {
		if o.view == nil {
			continue
		}
		evs = append(evs, ev{o.view.Submitted, +1})
		if o.view.Started != nil {
			evs = append(evs, ev{*o.view.Started, -1})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t.Equal(evs[j].t) {
			return evs[i].d < evs[j].d
		}
		return evs[i].t.Before(evs[j].t)
	})
	cur, best := 0, 0
	for _, e := range evs {
		cur += e.d
		best = max(best, cur)
	}
	return best
}

// addJobTrace adds one decrypt job's Figure 3 rows, read from the summary
// record of its server-side trace, to the core metrics.
func addJobTrace(v map[string]float64, c *daemonClient, o *jobOutcome) error {
	req, err := http.NewRequest(http.MethodGet, c.base+"/jobs/"+o.id+"/trace", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("fetching trace of %s: %w", o.id, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	var attributed float64
	learned := false
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.Contains(line, []byte(`"type":"summary"`)) {
			continue
		}
		var s obs.SummaryRecord
		if err := json.Unmarshal(line, &s); err != nil {
			return fmt.Errorf("decoding trace of %s: %w", o.id, err)
		}
		for _, p := range metrics.AllProcedures {
			suf := procSuffix[p]
			sec := float64(s.TimesNS[string(p)]) / 1e9
			v["core."+suf+"_s"] += sec
			attributed += sec
			v["core.queries."+suf] += float64(s.Queries[string(p)])
			v["core.rounds."+suf] += float64(s.Rounds[string(p)])
		}
		if s.TimesNS[string(metrics.ProcLearningAttack)] > 0 {
			learned = true
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading trace of %s: %w", o.id, err)
	}
	wall := o.view.Result.WallSeconds
	v["core.attack_s"] += wall
	v["core.unattributed_s"] += wall - attributed
	if learned {
		v["core.learning_fallback_ratio"]++
	}
	return nil
}
