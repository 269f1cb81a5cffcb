package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dnnlock/internal/service"
)

// fakeDaemon speaks the parts of the dnnlockd API the open-loop client
// uses. Every request blocks until release (a stalled server); submits
// listed in refuse get a 429. Each accepted job completes run after it is
// submitted.
type fakeDaemon struct {
	mu      sync.Mutex
	jobs    map[string]service.JobView
	submits int
	release time.Time
	refuse  map[int]bool
	run     time.Duration
}

func (f *fakeDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Until(f.release))
		var spec service.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.submits++
		if f.refuse[f.submits] {
			f.mu.Unlock()
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		now := time.Now()
		fin := now.Add(f.run)
		v := service.JobView{
			ID: fmt.Sprintf("j%06d", f.submits), Kind: spec.Kind, State: service.StateCompleted, Spec: spec,
			Submitted: now, Started: &now, Finished: &fin,
			Result: &service.JobResult{Fidelity: 1, Equivalent: true, Queries: 92, Rounds: 46},
		}
		f.jobs[v.ID] = v
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(v)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Until(f.release))
		f.mu.Lock()
		v, ok := f.jobs[r.PathValue("id")]
		f.mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(v)
	})
	return mux
}

func evenSchedule(n int, gap time.Duration) []arrival {
	var s []arrival
	for i := 0; i < n; i++ {
		s = append(s, arrival{at: time.Duration(i) * gap, class: "mlp-direct",
			spec: service.JobSpec{Kind: service.KindDecrypt, Model: "mlp", KeyBits: 8, Seed: 1}})
	}
	return s
}

// TestLatencyCountsFromDueTimeUnderStall: a server that answers nothing for
// 300 ms delays every job; each latency must include the whole wait since
// the job was due, even for jobs the blocked client could only send late.
func TestLatencyCountsFromDueTimeUnderStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	f := &fakeDaemon{jobs: map[string]service.JobView{}, run: time.Millisecond}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()
	c := newDaemonClient(ts.URL)

	sched := evenSchedule(8, 20*time.Millisecond)
	f.release = time.Now().Add(stall)
	outs, start := openLoop(c, sched)

	maxLag := time.Duration(0)
	for i, o := range outs {
		if !o.ok() {
			t.Fatalf("job %d did not complete: %+v", i, o)
		}
		if want := f.release.Sub(o.due).Seconds(); o.latency() < want {
			t.Errorf("job %d: latency %.3fs, but it could not finish before %.3fs after its due time", i, o.latency(), want)
		}
		if got := o.due.Sub(start); got != sched[i].at {
			t.Errorf("job %d: due %v after start, scheduled at %v", i, got, sched[i].at)
		}
		maxLag = max(maxLag, o.sent.Sub(o.due))
	}
	if maxLag < stall/2 {
		t.Fatalf("client lag peaked at %v: the stalled senders should have delayed later sends", maxLag)
	}
	if c.polls.Load() == 0 {
		t.Fatalf("the client did not count its polls")
	}
}

// TestRefusalsAreRetriedAndCounted: a 429 is backpressure, not a failure,
// while the client may still retry; every refusal is counted, and a job
// refused past retryFor fails with infinite latency.
func TestRefusalsAreRetriedAndCounted(t *testing.T) {
	f := &fakeDaemon{jobs: map[string]service.JobView{}, refuse: map[int]bool{2: true, 3: true}}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()
	outs, _ := openLoop(newDaemonClient(ts.URL), evenSchedule(3, 50*time.Millisecond))
	refusals := 0
	for i, o := range outs {
		refusals += o.refusals
		if !o.ok() || o.refused {
			t.Fatalf("job %d: a refused submit must be retried until accepted: %+v", i, o)
		}
	}
	if refusals != 2 || outs[1].refusals != 2 {
		t.Fatalf("the server refused the second job twice, the client recorded %d refusals (%d on it)", refusals, outs[1].refusals)
	}
	if got := outs[1].latency(); got < (2 * retryEvery).Seconds() {
		t.Fatalf("two refusals must add their retry waits to the job's latency, got %.4fs", got)
	}

	f = &fakeDaemon{jobs: map[string]service.JobView{}, refuse: map[int]bool{}}
	for i := 1; i < 100; i++ {
		f.refuse[i] = true
	}
	ts2 := httptest.NewServer(f.handler())
	defer ts2.Close()
	c := newDaemonClient(ts2.URL)
	c.retryFor = 3 * retryEvery
	outs, _ = openLoop(c, evenSchedule(1, 0))
	if o := outs[0]; !o.refused || o.refusals < 2 || o.ok() || !math.IsInf(o.latency(), 1) {
		t.Fatalf("a job refused past retryFor must fail with infinite latency: %+v", o)
	}

	done := time.Now()
	view := func(st service.State, r *service.JobResult) *service.JobView {
		return &service.JobView{State: st, Started: &done, Finished: &done, Result: r}
	}
	decrypt := service.JobSpec{Kind: service.KindDecrypt, Model: "mlp", KeyBits: 8, Seed: 1}
	mono := service.JobSpec{Kind: service.KindMonolithic, Model: "mlp", KeyBits: 8, Seed: 1}
	cases := []struct {
		name string
		o    *jobOutcome
		ok   bool
	}{
		{"exact", &jobOutcome{arr: arrival{spec: decrypt}, view: view(service.StateCompleted, &service.JobResult{Fidelity: 1, Equivalent: true, Queries: 92})}, true},
		{"wrong key", &jobOutcome{arr: arrival{spec: decrypt}, view: view(service.StateCompleted, &service.JobResult{Fidelity: 0.875, Equivalent: true, Queries: 92})}, false},
		{"not equivalent", &jobOutcome{arr: arrival{spec: decrypt}, view: view(service.StateCompleted, &service.JobResult{Fidelity: 1, Queries: 92})}, false},
		{"job failed", &jobOutcome{arr: arrival{spec: decrypt}, view: view(service.StateFailed, nil)}, false},
		{"timed out", &jobOutcome{arr: arrival{spec: decrypt}}, false},
		{"refused", &jobOutcome{arr: arrival{spec: decrypt}, refused: true}, false},
		{"monolithic", &jobOutcome{arr: arrival{spec: mono}, view: view(service.StateCompleted, &service.JobResult{Fidelity: 1})}, true},
	}
	var outcomes []*jobOutcome
	for _, c := range cases {
		if c.o.ok() != c.ok {
			t.Errorf("%s: ok() = %v, want %v", c.name, c.o.ok(), c.ok)
		}
		outcomes = append(outcomes, c.o)
	}
	rep := &report{}
	checkJobs(outcomes, rep)
	if rep.attempted != len(cases) || rep.failed != 5 {
		t.Fatalf("checkJobs counted %d attempted / %d failed, want %d / 5", rep.attempted, rep.failed, len(cases))
	}
	if len(rep.problems) != 0 {
		t.Fatalf("anchored jobs with 92 queries raised problems: %v", rep.problems)
	}
	checkJobs([]*jobOutcome{{arr: arrival{spec: decrypt}, view: view(service.StateCompleted, &service.JobResult{Fidelity: 1, Equivalent: true, Queries: 93})}}, rep)
	if len(rep.problems) != 1 {
		t.Fatalf("a seed-1 mlp-8 direct job with 93 queries must fail the Table 1 anchor")
	}
}
