package nn

import (
	"fmt"

	"dnnlock/internal/tensor"
)

// Network is a feed-forward stack of layers. Lockable pre-activations are
// marked by Flip layers; Flip and ReLU layers are assigned site IDs in
// network order at construction so traces and the attack can address them.
type Network struct {
	Layers []Layer

	flips []*Flip
	relus []*ReLU
}

// NewNetwork builds a network, validates the layer size chain, and
// registers flip/ReLU sites (including those inside residual blocks).
func NewNetwork(layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: empty network")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i-1].OutSize() != layers[i].InSize() {
			panic(fmt.Sprintf("nn: layer %d (%s) outputs %d but layer %d (%s) expects %d",
				i-1, layers[i-1].Name(), layers[i-1].OutSize(), i, layers[i].Name(), layers[i].InSize()))
		}
	}
	n := &Network{Layers: layers}
	nextFlip, nextReLU := 0, 0
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			if c, ok := l.(container); ok {
				walk(c.subLayers())
				continue
			}
			if r, ok := l.(siteRegistrar); ok {
				r.registerSites(&nextFlip, &nextReLU)
				switch v := l.(type) {
				case *Flip:
					n.flips = append(n.flips, v)
				case *ReLU:
					n.relus = append(n.relus, v)
				}
			}
		}
	}
	walk(layers)
	return n
}

// InSize returns the input dimensionality P.
func (n *Network) InSize() int { return n.Layers[0].InSize() }

// OutSize returns the output dimensionality Q.
func (n *Network) OutSize() int { return n.Layers[len(n.Layers)-1].OutSize() }

// Flips returns the flip layers in site-ID order.
func (n *Network) Flips() []*Flip { return n.flips }

// ReLUs returns the ReLU layers in site-ID order.
func (n *Network) ReLUs() []*ReLU { return n.relus }

// NumFlipSites returns the number of flip sites.
func (n *Network) NumFlipSites() int { return len(n.flips) }

// Forward computes the logits for one example. Safe for concurrent use as
// long as no goroutine mutates parameters or flip signs. Intermediate
// activations are staged in a pooled scratch; the returned logits are a
// fresh slice the caller owns.
func (n *Network) Forward(x []float64) []float64 {
	y := make([]float64, n.OutSize())
	n.ForwardInto(y, x)
	return y
}

// ForwardInto is Forward writing the logits into dst (length OutSize),
// which with a warm scratch pool allocates nothing.
func (n *Network) ForwardInto(dst, x []float64) {
	s := getChainScratch()
	copy(dst, forwardVecChain(n.Layers, x, s))
	putChainScratch(s)
}

func (n *Network) newTrace() *Trace {
	return &Trace{
		Pre:      make([][]float64, len(n.flips)),
		Post:     make([][]float64, len(n.flips)),
		Patterns: make([][]bool, len(n.relus)),
		ReluIn:   make([][]float64, len(n.relus)),
	}
}

// forwardTrace drives the trace-recording pass over a pooled scratch. The
// trace only ever holds clones (and, at the end, a fresh copy of the
// logits), so recycling the scratch is invisible to callers. A non-nil
// stop predicate is checked after every top-level layer; on stop tr.Out
// stays nil, exactly like the early return it replaces.
func (n *Network) forwardTrace(x []float64, tr *Trace, stop func() bool) {
	s := getChainScratch()
	defer putChainScratch(s)
	cur := x
	for _, l := range n.Layers {
		cur = forwardVecStep(l, cur, tr, s)
		if stop != nil && stop() {
			return
		}
	}
	tr.Out = append([]float64(nil), cur...)
}

// ForwardTrace computes the logits while recording flip-site pre/post
// values, ReLU inputs, and ReLU activation patterns.
func (n *Network) ForwardTrace(x []float64) *Trace {
	tr := n.newTrace()
	n.forwardTrace(x, tr, nil)
	return tr
}

// ForwardTraceTo records like ForwardTrace but stops (at top-level layer
// granularity) once flip site `site` has been recorded, saving the cost of
// the downstream layers. Used by the attack's critical-point search, which
// probes one pre-activation many times.
func (n *Network) ForwardTraceTo(x []float64, site int) *Trace {
	tr := n.newTrace()
	n.forwardTrace(x, tr, func() bool {
		return site >= 0 && site < len(tr.Pre) && tr.Pre[site] != nil
	})
	return tr
}

// ForwardTraceToReLU is ForwardTraceTo for a ReLU site.
func (n *Network) ForwardTraceToReLU(x []float64, reluSite int) *Trace {
	tr := n.newTrace()
	n.forwardTrace(x, tr, func() bool {
		return reluSite >= 0 && reluSite < len(tr.ReluIn) && tr.ReluIn[reluSite] != nil
	})
	return tr
}

// ForwardBatch computes logits for a batch (rows = examples). Consumed
// intermediates are recycled through the workspace pool — no layer retains
// its ForwardBatch result (unlike TrainForward, whose activations must
// survive for Backward). The returned logits are the caller's to release
// or abandon.
func (n *Network) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	return forwardBatchChain(n.Layers, x)
}

// TrainForward runs the caching forward pass for training.
func (n *Network) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range n.Layers {
		x = l.TrainForward(x)
	}
	return x
}

// TrainBackward propagates the output gradient, accumulating parameter
// gradients, and returns the input gradient. Consumed chain intermediates
// are recycled through the workspace pool; the returned gradient is the
// caller's to release (or abandon to the GC).
func (n *Network) TrainBackward(dy *tensor.Matrix) *tensor.Matrix {
	return backwardChain(n.Layers, dy)
}

// Params returns every parameter in the network.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			p.ZeroGrad()
		}
	}
}

// PreActJacobian returns the unsigned pre-activation u at flip site and its
// Jacobian Â (d_site × P) with respect to the network input, evaluated at x.
// For a piecewise-linear network this Jacobian is exactly the paper's
// product weight matrix of Formulas 2–3 in the linear region of x.
// Propagation stops as soon as the requested site has been recorded.
func (n *Network) PreActJacobian(x []float64, site int) ([]float64, *tensor.Matrix) {
	if site < 0 || site >= len(n.flips) {
		panic(fmt.Sprintf("nn: flip site %d out of range", site))
	}
	jtr := n.newJVPTrace()
	j := tensor.Identity(len(x))
	v := x
	for _, l := range n.Layers {
		v, j = l.JVP(v, j, jtr)
		if jtr.Have(site) {
			break
		}
	}
	if !jtr.Have(site) {
		panic(fmt.Sprintf("nn: flip site %d never reached", site))
	}
	// Recover the unsigned pre-activation via a trace (cheap single pass).
	tr := n.ForwardTraceTo(x, site)
	return tr.Pre[site], jtr.PreJ[site]
}

func (n *Network) newJVPTrace() *JVPTrace {
	return &JVPTrace{
		PreJ:  make([]*tensor.Matrix, len(n.flips)),
		ReluJ: make([]*tensor.Matrix, len(n.relus)),
	}
}

// ReluInJacobian returns the input of ReLU site r and its Jacobian with
// respect to the network input, evaluated at x. The zero set of this input
// is where the network function actually bends, which is what the attack's
// validation probes.
func (n *Network) ReluInJacobian(x []float64, r int) ([]float64, *tensor.Matrix) {
	if r < 0 || r >= len(n.relus) {
		panic(fmt.Sprintf("nn: relu site %d out of range", r))
	}
	jtr := n.newJVPTrace()
	j := tensor.Identity(len(x))
	v := x
	for _, l := range n.Layers {
		v, j = l.JVP(v, j, jtr)
		if jtr.HaveReLU(r) {
			break
		}
	}
	if !jtr.HaveReLU(r) {
		panic(fmt.Sprintf("nn: relu site %d never reached", r))
	}
	tr := n.ForwardTraceToReLU(x, r)
	return tr.ReluIn[r], jtr.ReluJ[r]
}

// OutputJacobian returns the logits y and the full Jacobian dy/dx (Q × P).
func (n *Network) OutputJacobian(x []float64) ([]float64, *tensor.Matrix) {
	j := tensor.Identity(len(x))
	v := x
	for _, l := range n.Layers {
		v, j = l.JVP(v, j, nil)
	}
	return v, j
}

// SiteEvent describes one flip or ReLU site in computation-walk order,
// annotated with the layer sequence it belongs to so callers can reason
// about direct gating (a ReLU immediately following a Flip in the same
// sequence rectifies exactly that flip's output).
type SiteEvent struct {
	IsFlip bool
	ID     int // flip-site or ReLU-site ID
	Seq    int // sequence instance: 0 = top level, residual paths get fresh IDs
	Pos    int // layer position within the sequence
}

// SiteLayout returns the flip and ReLU sites in computation-walk order.
func (n *Network) SiteLayout() []SiteEvent {
	var out []SiteEvent
	nextSeq := 0
	var walk func(seq int, layers []Layer)
	walk = func(seq int, layers []Layer) {
		for pos, l := range layers {
			switch v := l.(type) {
			case *Flip:
				out = append(out, SiteEvent{IsFlip: true, ID: v.SiteID, Seq: seq, Pos: pos})
			case *ReLU:
				out = append(out, SiteEvent{IsFlip: false, ID: v.SiteID, Seq: seq, Pos: pos})
			case *Residual:
				nextSeq++
				walk(nextSeq, v.Body)
				nextSeq++
				walk(nextSeq, v.Shortcut)
			}
		}
	}
	walk(0, n.Layers)
	return out
}

// CloneForKeys returns a network that shares every parameter with n except
// the Flip layers, which are deep-copied so their signs can be set
// independently. The clone is meant for read-only (inference/Jacobian) use
// under alternative key hypotheses; do not train it.
func (n *Network) CloneForKeys() *Network {
	var cloneLayers func(ls []Layer) []Layer
	cloneLayers = func(ls []Layer) []Layer {
		out := make([]Layer, len(ls))
		for i, l := range ls {
			switch v := l.(type) {
			case *Flip:
				c := NewFlip(v.N)
				copy(c.Signs, v.Signs)
				if v.Offsets != nil {
					c.Offsets = make([]float64, len(v.Offsets))
					copy(c.Offsets, v.Offsets)
				}
				out[i] = c
			case *Residual:
				out[i] = &Residual{
					Body:     cloneLayers(v.Body),
					Shortcut: cloneLayers(v.Shortcut),
				}
			default:
				out[i] = l
			}
		}
		return out
	}
	return NewNetwork(cloneLayers(n.Layers)...)
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W.Data)
	}
	return total
}
