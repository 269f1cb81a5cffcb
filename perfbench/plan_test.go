package main

import (
	"reflect"
	"testing"
	"time"
)

// attackSeq lists the first n attacks of a plan.
func attackSeq(p attackPlan, n int) [][3]int64 {
	var out [][3]int64
	for i := 0; i < n; i++ {
		c, s, own := p.attackAt(i)
		o := int64(0)
		if own {
			o = 1
		}
		out = append(out, [3]int64{int64(c), s, o})
	}
	return out
}

func TestWorkloadSeedFixesInputs(t *testing.T) {
	for _, plan := range []func(int64) attackPlan{algebraicPlan, learningPlan} {
		a, b := plan(7), plan(7)
		if !reflect.DeepEqual(a.cells, b.cells) || !reflect.DeepEqual(attackSeq(a, 500), attackSeq(b, 500)) {
			t.Fatalf("seed 7 generated two different closed-loop plans")
		}
		if reflect.DeepEqual(attackSeq(a, 500), attackSeq(plan(8), 500)) {
			t.Fatalf("seeds 7 and 8 generated the same attack seeds")
		}
	}

	s1 := daemonSchedule(7, 5*time.Second, 0)
	s2 := daemonSchedule(7, 5*time.Second, 0)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("seed 7 generated two different daemon schedules")
	}
	if reflect.DeepEqual(s1, daemonSchedule(8, 5*time.Second, 0)) {
		t.Fatalf("seeds 7 and 8 generated the same daemon schedule")
	}
}

func TestAnchorsUseTheCellsOwnSeedOnce(t *testing.T) {
	p := learningPlan(3)
	anchored := 0
	for i := 0; i < 3*len(p.cells); i++ {
		c, _, own := p.attackAt(i)
		_, hasAnchor := anchorFor(p.cells[c])
		if own && (!hasAnchor || i >= len(p.cells)) {
			t.Fatalf("attack %d keeps the cell seed but is not the first visit of an anchored cell", i)
		}
		if own {
			anchored++
		}
	}
	if anchored != 3 {
		t.Fatalf("learning plan has %d anchored attacks, want 3 (lenet, resnet, vtransformer on seed 1)", anchored)
	}
}

func TestDaemonScheduleShape(t *testing.T) {
	const step = 10 * time.Second
	sched := daemonSchedule(5, step, 0)
	perStep := make([]int, len(rateSteps))
	fresh := map[int64]bool{}
	var last time.Duration
	for _, a := range sched {
		if a.at < last {
			t.Fatalf("arrivals are not in due order")
		}
		last = a.at
		if a.at < time.Duration(a.step)*step || a.at >= time.Duration(a.step+1)*step {
			t.Fatalf("arrival at %v lies outside step %d", a.at, a.step)
		}
		perStep[a.step]++
		if a.class == "mlp-fresh" {
			if fresh[a.spec.Seed] {
				t.Fatalf("fresh victim seed %d used twice", a.spec.Seed)
			}
			fresh[a.spec.Seed] = true
			for _, c := range warmCells() {
				if c.Seed == a.spec.Seed {
					t.Fatalf("fresh seed %d collides with a warmed cell", a.spec.Seed)
				}
			}
		}
	}
	for i, st := range rateSteps {
		if want := int(st.rate * step.Seconds()); perStep[i] != want {
			t.Errorf("step %s has %d jobs, want %d", st.name, perStep[i], want)
		}
	}
	// A second schedule in the same daemon must not reuse fresh seeds.
	for _, a := range daemonSchedule(5, step, 1_000_000) {
		if a.class == "mlp-fresh" && fresh[a.spec.Seed] {
			t.Fatalf("offset schedule reuses fresh seed %d", a.spec.Seed)
		}
	}
}
