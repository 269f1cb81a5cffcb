package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dnnlock/internal/service"
)

// Everything a workload feeds the program is generated here from the
// workload seed, so one seed always yields the same cells, attack seeds,
// job specs and arrival times.

// cellRef names one prepared (model, key size, victim seed) cell.
type cellRef struct {
	Model string
	Bits  int
	Seed  int64
}

func (c cellRef) String() string { return fmt.Sprintf("%s-%d/s%d", c.Model, c.Bits, c.Seed) }

// anchorQueries are the Table 1 query counts of the seed-1 tiny cells under
// an unchanged Cell.DecryptConfig(). A run that does not reproduce them is
// not measuring the paper's attack.
var anchorQueries = map[string]int64{
	"mlp-8":          92,
	"lenet-4":        589,
	"resnet-4":       944,
	"vtransformer-4": 288,
}

// anchorFor returns the Table 1 anchor of a cell, if it has one.
func anchorFor(c cellRef) (int64, bool) {
	if c.Seed != 1 {
		return 0, false
	}
	q, ok := anchorQueries[fmt.Sprintf("%s-%d", c.Model, c.Bits)]
	return q, ok
}

// mix64 is splitmix64: a stateless hash from (seed, stream, index) to a
// well-spread 63-bit value.
func mix64(seed int64, stream, i uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// attackPlan is a closed-loop workload: a fixed cell list visited
// round-robin, one attack per visit.
type attackPlan struct {
	seed  int64
	cells []cellRef
}

// attackAt returns the i-th attack of the loop: which cell, and the attack
// seed. The first visit to a cell with a Table 1 anchor keeps the cell's
// own DecryptConfig seed (useCellSeed) so it reproduces the anchor; every
// other attack draws a fresh seed.
func (p attackPlan) attackAt(i int) (cell int, attackSeed int64, useCellSeed bool) {
	cell = i % len(p.cells)
	if _, ok := anchorFor(p.cells[cell]); ok && i < len(p.cells) {
		return cell, 0, true
	}
	return cell, 1 + mix64(p.seed, 2, uint64(i))%1_000_000_000, false
}

// algebraicPlan: tiny MLPs at key sizes 8 and 12 on victim seeds 1, 2
// and 3. The victims are fixed; the workload seed draws the attack seeds.
// (Victims drawn per seed can include a cell whose every attack falls back
// to learning, which halves the attack rate: the draw, not the code, would
// set the figures.)
func algebraicPlan(seed int64) attackPlan {
	p := attackPlan{seed: seed}
	for _, bits := range []int{8, 12} {
		for _, v := range []int64{1, 2, 3} {
			p.cells = append(p.cells, cellRef{"mlp", bits, v})
		}
	}
	return p
}

// learningPlan: tiny LeNet, ResNet and ViT on victim seed 1, plus LeNet
// and ViT on victim seed 2. The cells are the same for every workload seed
// (only attack seeds vary): their attacks run 0.1 to 3 s each, and cells
// drawn per seed would let the mix, not the code, set the figures. ResNet
// appears once per pass so a pass stays near 3 s and a run sees about 50
// attacks.
func learningPlan(seed int64) attackPlan {
	return attackPlan{seed: seed, cells: []cellRef{
		{"lenet", 4, 1}, {"resnet", 4, 1}, {"vtransformer", 4, 1},
		{"lenet", 4, 2}, {"vtransformer", 4, 2},
	}}
}

// jobClass is one kind of daemon job in the daemon-mixed traffic mix.
type jobClass struct {
	name string
	// weight is the class's share of each rate step's jobs.
	weight float64
	spec   func(seed int64, n int) service.JobSpec
}

// farmOracle is the simulated channel of farm jobs: the mixed 1000-device
// fleet behind a 20 ms, 10 Mbit/s, 1%-loss link.
var farmOracle = service.OracleSpec{
	Channel: "farm", Mix: "mixed", Devices: 1000, RTTMS: 20, BandwidthMbps: 10, Loss: 0.01,
}

// sharedMLPSeeds are the victim seeds of the cached MLP cells, all warmed
// during set-up. They are fixed: most jobs run on them, so cells drawn per
// seed would let the draw, not the code, set the median latency.
func sharedMLPSeeds() []int64 {
	return []int64{1, 2, 3}
}

// freshSeed is the victim seed of the n-th never-seen cell of a run. It is
// far above every fixed victim seed, so it never hits a warmed cell.
func freshSeed(seed int64, n int) int64 {
	return 10_000_000 + (mix64(seed, 3, 0)%1000)*100_000 + int64(n)
}

// jobClasses is the daemon-mixed traffic mix.
var jobClasses = []jobClass{
	{"mlp-direct", 0.58, func(seed int64, n int) service.JobSpec {
		s := sharedMLPSeeds()
		return service.JobSpec{Kind: service.KindDecrypt, Model: "mlp", KeyBits: 8, Seed: s[n%len(s)]}
	}},
	{"mlp-faulty", 0.12, func(seed int64, n int) service.JobSpec {
		return service.JobSpec{Kind: service.KindDecrypt, Model: "mlp", KeyBits: 8, Seed: 1,
			Oracle: service.OracleSpec{Channel: "faulty", Sigma: 1e-7, QuantBits: 24, Loss: 0.02}}
	}},
	{"mlp-farm", 0.08, func(seed int64, n int) service.JobSpec {
		return service.JobSpec{Kind: service.KindDecrypt, Model: "mlp", KeyBits: 8, Seed: 1, Oracle: farmOracle}
	}},
	{"lenet-farm", 0.01, func(seed int64, n int) service.JobSpec {
		return service.JobSpec{Kind: service.KindDecrypt, Model: "lenet", KeyBits: 4, Seed: 1, Oracle: farmOracle}
	}},
	{"mlp-monolithic", 0.04, func(seed int64, n int) service.JobSpec {
		return service.JobSpec{Kind: service.KindMonolithic, Model: "mlp", KeyBits: 8, Seed: 1}
	}},
	{"vit-direct", 0.01, func(seed int64, n int) service.JobSpec {
		return service.JobSpec{Kind: service.KindDecrypt, Model: "vtransformer", KeyBits: 4, Seed: 1}
	}},
	{"mlp-fresh", 0.16, func(seed int64, n int) service.JobSpec {
		return service.JobSpec{Kind: service.KindDecrypt, Model: "mlp", KeyBits: 8, Seed: freshSeed(seed, n)}
	}},
}

// warmCells are the cells daemon set-up trains through one direct job
// each, so measured jobs on them hit the daemon's cell cache.
func warmCells() []cellRef {
	var cs []cellRef
	for _, s := range sharedMLPSeeds() {
		cs = append(cs, cellRef{"mlp", 8, s})
	}
	return append(cs, cellRef{"lenet", 4, 1}, cellRef{"vtransformer", 4, 1})
}

// rateStep is one fixed offered load of the open loop.
type rateStep struct {
	name string
	rate float64 // jobs per second
}

// rateSteps are the daemon-mixed loads, frozen so every later commit is
// offered the same load. When they were set, the mix saturated near 95
// jobs/s on a 2-core host: light is about a third of that. Heavy is about
// half, not two thirds: a job hashed behind a LeNet farm job waits while
// the other shard idles, so at 60 jobs/s 2-3% of the heavy step's submits
// already meet a full shard queue (429).
var rateSteps = []rateStep{{"light", 30}, {"heavy", 45}}

// arrival is one scheduled submit of the open loop.
type arrival struct {
	at    time.Duration // due time, from the start of the schedule
	step  int           // index into rateSteps
	class string
	spec  service.JobSpec
}

// daemonSchedule lays out the open loop: each step lasts stepLen and gets
// exactly round(rate*stepLen) jobs, a Poisson process conditioned on its
// count (sorted uniform arrival times), so the offered load is the same on
// every seed while arrival times vary. Each step's jobs follow the class
// weights exactly, shuffled by the seed. freshBase offsets the never-seen
// victim seeds, so two schedules in one daemon do not share them.
func daemonSchedule(seed int64, stepLen time.Duration, freshBase int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	fresh := freshBase
	perClass := map[string]int{}
	for si, st := range rateSteps {
		n := int(st.rate*stepLen.Seconds() + 0.5)
		var classes []int
		for ci, c := range jobClasses {
			k := int(c.weight*float64(n) + 0.5)
			for j := 0; j < k; j++ {
				classes = append(classes, ci)
			}
		}
		for len(classes) < n {
			classes = append(classes, 0)
		}
		classes = classes[:n]
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		times := make([]float64, n)
		for i := range times {
			times[i] = rng.Float64() * stepLen.Seconds()
		}
		sort.Float64s(times)
		base := time.Duration(si) * stepLen
		for i, ci := range classes {
			c := jobClasses[ci]
			k := perClass[c.name]
			perClass[c.name]++
			if c.name == "mlp-fresh" {
				k = fresh
				fresh++
			}
			out = append(out, arrival{
				at:    base + time.Duration(times[i]*float64(time.Second)),
				step:  si,
				class: c.name,
				spec:  c.spec(seed, k),
			})
		}
	}
	return out
}
