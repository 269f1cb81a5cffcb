package nn

import (
	"sync"

	"dnnlock/internal/tensor"
)

// vecForward is implemented by layers whose single-example forward can
// write into a caller-supplied buffer. Implementations must overwrite
// every element of out — pooled buffers carry arbitrary contents — and
// must perform exactly the arithmetic of Forward(x, nil), so the pooled
// chain below stays bit-identical to the allocating one. Layers that
// record into traces or return their input unchanged simply don't
// implement the interface and fall back to Forward.
type vecForward interface {
	forwardVecInto(out, x []float64)
}

func (c *Conv2D) forwardVecInto(out, x []float64) { c.forwardInto(x, out, true) }

func (m *MaxPool2D) forwardVecInto(out, x []float64) { m.forwardArgInto(x, out, nil) }

func (f *Flip) forwardVecInto(out, x []float64) { f.forwardRowInto(out, x) }

func (r *ReLU) forwardVecInto(out, x []float64) {
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

func (d *Dense) forwardVecInto(out, x []float64) {
	tensor.MatVecInto(out, d.W.W, x)
	brow := d.B.W.Row(0)
	for i := range out {
		out[i] += brow[i]
	}
}

func (g *GlobalAvgPool) forwardVecInto(out, x []float64) {
	plane := g.H * g.W
	for c := 0; c < g.C; c++ {
		s := 0.0
		for i := c * plane; i < (c+1)*plane; i++ {
			s += x[i]
		}
		out[c] = s / float64(plane)
	}
}

func (a *AvgPool2D) forwardVecInto(out, x []float64) {
	inv := 1 / float64(a.K*a.K)
	for c := 0; c < a.C; c++ {
		inBase := c * a.InH * a.InW
		outBase := c * a.OutH * a.OutW
		for oy := 0; oy < a.OutH; oy++ {
			for ox := 0; ox < a.OutW; ox++ {
				s := 0.0
				for ky := 0; ky < a.K; ky++ {
					iy := oy*a.Stride + ky
					for kx := 0; kx < a.K; kx++ {
						s += x[inBase+iy*a.InW+ox*a.Stride+kx]
					}
				}
				out[outBase+oy*a.OutW+ox] = s * inv
			}
		}
	}
}

func (m *MeanTokens) forwardVecInto(out, x []float64) {
	for d := range out {
		out[d] = 0
	}
	for t := 0; t < m.T; t++ {
		for d := 0; d < m.D; d++ {
			out[d] += x[t*m.D+d]
		}
	}
	inv := 1 / float64(m.T)
	for d := range out {
		out[d] *= inv
	}
}

func (r *Residual) forwardVecInto(out, x []float64) { r.forwardVecIntoTrace(out, x, nil) }

// traceVecForward is the trace-recording counterpart of vecForward,
// implemented by the layers whose Forward consults the trace (Flip, ReLU,
// Residual). The recorded values must be clones, exactly as Forward
// records them — the out buffer is pooled and will be recycled.
type traceVecForward interface {
	forwardVecIntoTrace(out, x []float64, tr *Trace)
}

func (r *ReLU) forwardVecIntoTrace(out, x []float64, tr *Trace) {
	pat := make([]bool, r.N)
	for i, v := range x {
		if v > 0 {
			out[i] = v
			pat[i] = true
		} else {
			out[i] = 0
		}
	}
	tr.Patterns[r.SiteID] = pat
	tr.ReluIn[r.SiteID] = append([]float64(nil), x...)
}

func (f *Flip) forwardVecIntoTrace(out, x []float64, tr *Trace) {
	f.forwardRowInto(out, x)
	tr.Pre[f.SiteID] = tensor.VecClone(x)
	tr.Post[f.SiteID] = tensor.VecClone(out)
}

// forwardVecIntoTrace runs both paths, each over its own pooled scratch
// (the body's result must survive the shortcut's walk), and sums them. A
// nil tr is the plain vecForward path.
func (r *Residual) forwardVecIntoTrace(out, x []float64, tr *Trace) {
	bs, ss := getChainScratch(), getChainScratch()
	b := forwardVecChainTr(r.Body, x, tr, bs)
	s := forwardVecChainTr(r.Shortcut, x, tr, ss)
	for i := range out {
		out[i] = b[i] + s[i]
	}
	putChainScratch(bs)
	putChainScratch(ss)
}

// chainScratch is the two-buffer ping-pong a chain walk stages its
// intermediates in: each layer reads the buffer the previous one wrote and
// writes the other. A walk takes one scratch from chainScratches for its
// whole length, so a probe or a forward pass costs one pool round trip
// instead of a GetVec/PutVec pair per layer, and a warm pool makes the
// walk allocation-free. The buffers grow to the widest layer they serve
// and keep that capacity across walks.
type chainScratch struct {
	buf  [2][]float64
	next int // index of the buffer the next layer writes; never the current input
}

var chainScratches = sync.Pool{New: func() any { return new(chainScratch) }}

func getChainScratch() *chainScratch {
	s := chainScratches.Get().(*chainScratch)
	s.next = 0
	return s
}

func putChainScratch(s *chainScratch) { chainScratches.Put(s) }

// out returns the length-n buffer the next layer writes into and flips the
// ping-pong. The buffer never aliases the walk's current input: that is
// either the other buffer, the caller's x, or a fallback layer's heap
// result.
func (s *chainScratch) out(n int) []float64 {
	k := s.next
	if cap(s.buf[k]) < n {
		s.buf[k] = make([]float64, n)
	}
	s.next ^= 1
	return s.buf[k][:n]
}

// forwardVecChain runs layers over x, staging intermediates in s. The
// result lives in s (valid until s is returned to the pool), is a fresh
// heap slice from a fallback layer, or is x itself when every layer was an
// identity (Flatten).
func forwardVecChain(layers []Layer, x []float64, s *chainScratch) []float64 {
	return forwardVecChainTr(layers, x, nil, s)
}

// forwardVecChainTr is forwardVecChain with optional trace recording:
// trace-consulting layers dispatch through traceVecForward when tr is
// non-nil, trace-blind layers always take their plain Into path, and
// anything else falls back to the allocating Forward.
func forwardVecChainTr(layers []Layer, x []float64, tr *Trace, s *chainScratch) []float64 {
	cur := x
	for _, l := range layers {
		cur = forwardVecStep(l, cur, tr, s)
	}
	return cur
}

// forwardVecStep runs one layer through its Into path appropriate for the
// trace mode, writing into s; a layer without one falls back to Forward
// (whose result, or its unchanged input for an identity layer, is
// returned as is).
func forwardVecStep(l Layer, x []float64, tr *Trace, s *chainScratch) []float64 {
	if tr != nil {
		if tv, hit := l.(traceVecForward); hit {
			out := s.out(l.OutSize())
			tv.forwardVecIntoTrace(out, x, tr)
			return out
		}
	}
	// Reaching here under tracing means the layer is trace-blind (every
	// trace-consulting layer implements traceVecForward), so its plain
	// Into path is exact.
	if fi, hit := l.(vecForward); hit {
		out := s.out(l.OutSize())
		fi.forwardVecInto(out, x)
		return out
	}
	return l.Forward(x, tr)
}

// PostAt returns the post-flip value of element idx at flip site `site` —
// the scalar the §3.5 critical-point bisection reads. It runs the same
// kernels as the trace path (values are bit-identical) but records
// nothing and stops as soon as the flip has run, so a probe costs the
// prefix forward plus one flip row and, with a warm scratch pool, no
// allocation.
func (n *Network) PostAt(x []float64, site, idx int) float64 {
	s := getChainScratch()
	defer putChainScratch(s)
	if in, f, ok := walkToSite(n.Layers, x, site, -1, s); ok {
		out := s.out(f.N)
		f.forwardRowInto(out, in)
		return out[idx]
	}
	// Site not visible to the walker (shouldn't happen for registered
	// sites); the recording path is always correct.
	return n.ForwardTraceTo(x, site).Post[site][idx]
}

// PreInto copies the unsigned pre-activation entering flip site `site`
// (the trace's Pre[site]) into dst, which must have the site's width.
// Same contract as PostAt: bit-identical to the trace, no allocation.
func (n *Network) PreInto(dst, x []float64, site int) {
	s := getChainScratch()
	defer putChainScratch(s)
	if in, _, ok := walkToSite(n.Layers, x, site, -1, s); ok {
		copy(dst, in)
		return
	}
	copy(dst, n.ForwardTraceTo(x, site).Pre[site])
}

// ReluInAt returns the input of element idx at ReLU site `reluSite`, the
// scalar bisected by the validation's hyperplane probes. Same contract as
// PostAt.
func (n *Network) ReluInAt(x []float64, reluSite, idx int) float64 {
	s := getChainScratch()
	defer putChainScratch(s)
	if in, _, ok := walkToSite(n.Layers, x, -1, reluSite, s); ok {
		return in[idx]
	}
	return n.ForwardTraceToReLU(x, reluSite).ReluIn[reluSite][idx]
}

// walkToSite runs the layer chain over s until the probed site is reached
// and returns the vector entering it: the input of flip site flipSite
// (with that Flip) or of ReLU site reluSite (-1 disables either). The
// vector lives in s, x, or a fallback layer's result, and is valid until s
// is returned to the pool. A residual holding the site is entered by
// switching the walk to the path that holds it, so no path is ever
// evaluated twice and the residual's other path not at all.
func walkToSite(layers []Layer, x []float64, flipSite, reluSite int, s *chainScratch) ([]float64, *Flip, bool) {
	cur := x
	for i := 0; i < len(layers); i++ {
		switch v := layers[i].(type) {
		case *Flip:
			if v.SiteID == flipSite {
				return cur, v, true
			}
		case *ReLU:
			if v.SiteID == reluSite {
				return cur, nil, true
			}
		case *Residual:
			var path []Layer
			switch {
			case containsProbeSite(v.Body, flipSite, reluSite):
				path = v.Body
			case containsProbeSite(v.Shortcut, flipSite, reluSite):
				path = v.Shortcut
			}
			if path != nil {
				layers, i = path, -1
				continue
			}
		}
		cur = forwardVecStep(layers[i], cur, nil, s)
	}
	return nil, nil, false
}

// containsProbeSite reports whether the layer set (recursively) holds the
// flip or ReLU site a probe is after.
func containsProbeSite(layers []Layer, flipSite, reluSite int) bool {
	for _, l := range layers {
		switch v := l.(type) {
		case *Flip:
			if v.SiteID == flipSite {
				return true
			}
		case *ReLU:
			if v.SiteID == reluSite {
				return true
			}
		case *Residual:
			if containsProbeSite(v.Body, flipSite, reluSite) || containsProbeSite(v.Shortcut, flipSite, reluSite) {
				return true
			}
		}
	}
	return false
}
