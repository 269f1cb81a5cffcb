package geometry

import (
	"math"
	"math/rand"
	"testing"

	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

// referenceWalk is the straightforward Formulas 2–4 fold: materialize the
// identity, multiply every Dense layer in, and apply Flip signs and ReLU
// masks to fresh copies. walkAffine must agree with it bit for bit.
func referenceWalk(net *nn.Network, tr *nn.Trace, stopSite, stopReLU int) AffineMap {
	p := net.InSize()
	cur := AffineMap{A: tensor.Identity(p), B: make([]float64, p)}
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *nn.Dense:
			cur = AffineMap{
				A: tensor.MatMul(v.W.W, cur.A),
				B: tensor.VecAdd(tensor.MatVec(v.W.W, cur.B), v.B.W.Row(0)),
			}
		case *nn.Flip:
			if v.SiteID == stopSite {
				return cur
			}
			a, b := cur.A.Clone(), tensor.VecClone(cur.B)
			for i, s := range v.Signs {
				if s != 1 {
					row := a.Row(i)
					for c := range row {
						row[c] *= s
					}
					b[i] *= s
				}
				if v.Offsets != nil {
					b[i] += v.Offsets[i]
				}
			}
			cur = AffineMap{A: a, B: b}
		case *nn.ReLU:
			if v.SiteID == stopReLU {
				return cur
			}
			a, b := cur.A.Clone().MaskRows(tr.Patterns[v.SiteID]), tensor.VecClone(cur.B)
			for i, on := range tr.Patterns[v.SiteID] {
				if !on {
					b[i] = 0
				}
			}
			cur = AffineMap{A: a, B: b}
		}
	}
	return cur
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestWalkAffineMatchesReferenceBits pins the in-place walk and the
// identity fold against the reference fold, bit for bit, at every flip and
// ReLU stop and for the whole network — including zero and negative-zero
// weights and biases (which the identity fold must canonicalize exactly as
// the kernels do) and a network whose first layer is a Flip (which forces
// the identity to be materialized).
func TestWalkAffineMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	negZero := math.Copysign(0, -1)

	plain := lockedMLP(rng, []int{1, 3, 8})
	first := plain.Layers[0].(*nn.Dense)
	first.W.W.Data[2] = negZero
	first.W.W.Data[5] = 0
	first.B.W.Data[1] = negZero

	lead := nn.NewFlip(4)
	lead.SetBit(2, true)
	flipFirst := nn.NewNetwork(lead, nn.NewDense(4, 6).InitHe(rng), nn.NewFlip(6), nn.NewReLU(6), nn.NewDense(6, 2).InitHe(rng))

	for name, net := range map[string]*nn.Network{"dense-first": plain, "flip-first": flipFirst} {
		for trial := 0; trial < 5; trial++ {
			tr := net.ForwardTrace(randIn(rng, net.InSize()))
			check := func(what string, got AffineMap, want AffineMap) {
				t.Helper()
				if !sameBits(got.A.Data, want.A.Data) || !sameBits(got.B, want.B) {
					t.Fatalf("%s %s: walkAffine differs from the reference fold", name, what)
				}
			}
			for s := range net.Flips() {
				got, err := ProductMatrix(net, tr, s)
				if err != nil {
					t.Fatal(err)
				}
				check("flip stop", got, referenceWalk(net, tr, s, -1))
			}
			for r := range net.ReLUs() {
				got, err := ProductMatrixAtReLU(net, tr, r)
				if err != nil {
					t.Fatal(err)
				}
				check("relu stop", got, referenceWalk(net, tr, -1, r))
			}
			got, err := RegionAffineMap(net, tr)
			if err != nil {
				t.Fatal(err)
			}
			check("whole net", got, referenceWalk(net, tr, -1, -1))
		}
	}
}
