package nn_test

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"dnnlock/internal/models"
	"dnnlock/internal/nn"
)

// TestProbePathAllocFree pins the allocation-free probe path: once the
// scratch pool is warm, PostAt, PreInto, ReluInAt and ForwardInto allocate
// nothing per call, on a plain MLP and on a residual network (whose probes
// descend into the block holding the site and run whole blocks that do
// not), and they return exactly the traced values.
func TestProbePathAllocFree(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops Puts at random under -race, so allocation counts mean nothing")
	}
	for _, c := range []struct {
		name  string
		build func(*rand.Rand) *nn.Network
	}{{"mlp", models.TinyMLP}, {"resnet", models.TinyResNet}} {
		name := c.name
		rng := rand.New(rand.NewSource(61))
		net := c.build(rng)
		for _, f := range net.Flips() {
			for j := range f.Signs {
				f.SetBit(j, rng.Intn(2) == 1)
			}
		}
		x := make([]float64, net.InSize())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		full := net.ForwardTrace(x)
		for s, f := range net.Flips() {
			idx := f.N / 2
			if got, want := net.PostAt(x, s, idx), full.Post[s][idx]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: PostAt(site %d) = %v, traced %v", name, s, got, want)
			}
			if n := testing.AllocsPerRun(20, func() { net.PostAt(x, s, idx) }); n != 0 {
				t.Errorf("%s: PostAt(site %d) allocates %.1f times per call, want 0", name, s, n)
			}
		}
		for s, f := range net.Flips() {
			pre := make([]float64, f.N)
			net.PreInto(pre, x, s)
			for k := range pre {
				if math.Float64bits(pre[k]) != math.Float64bits(full.Pre[s][k]) {
					t.Fatalf("%s: PreInto(site %d)[%d] = %v, traced %v", name, s, k, pre[k], full.Pre[s][k])
				}
			}
			if n := testing.AllocsPerRun(20, func() { net.PreInto(pre, x, s) }); n != 0 {
				t.Errorf("%s: PreInto(site %d) allocates %.1f times per call, want 0", name, s, n)
			}
		}
		out := make([]float64, net.OutSize())
		net.ForwardInto(out, x)
		for k := range out {
			if math.Float64bits(out[k]) != math.Float64bits(full.Out[k]) {
				t.Fatalf("%s: ForwardInto[%d] = %v, traced %v", name, k, out[k], full.Out[k])
			}
		}
		if n := testing.AllocsPerRun(20, func() { net.ForwardInto(out, x) }); n != 0 {
			t.Errorf("%s: ForwardInto allocates %.1f times per call, want 0", name, n)
		}
		for r, l := range net.ReLUs() {
			idx := l.N - 1
			if got, want := net.ReluInAt(x, r, idx), full.ReluIn[r][idx]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: ReluInAt(site %d) = %v, traced %v", name, r, got, want)
			}
			if n := testing.AllocsPerRun(20, func() { net.ReluInAt(x, r, idx) }); n != 0 {
				t.Errorf("%s: ReluInAt(site %d) allocates %.1f times per call, want 0", name, r, n)
			}
		}
	}
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
