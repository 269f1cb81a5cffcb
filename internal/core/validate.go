package core

import (
	"math/rand"
	"sort"
	"sync/atomic"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/nn"
	"dnnlock/internal/obs"
	"dnnlock/internal/tensor"
)

// Validation probes the oracle where the network function actually bends:
// the zero sets of ReLU *inputs*. For a directly-gated lockable layer
// (dense/conv stacks) this coincides with the paper's "hyperplane induced
// by η_{i+1,j}"; for residual blocks, whose post-add rectifier mixes the
// body with the shortcut, it is the correct generalization — the flip
// output itself is not a kink there.
//
// A ReLU site is an admissible probe for a group of just-decided flip
// sites when every flip upstream of it is either already decided or is the
// flip it directly gates (whose negation/scaling bit cannot move the kink,
// Lemma 1). When no admissible-and-informative probe exists — e.g. between
// the two flips inside one residual block — validation is deferred and the
// sites are validated together at the block boundary.

// validation modes.
const (
	modeDefer  = iota // no admissible probe yet: postpone validation
	modeKink          // probe the next admissible ReLU site's kinks
	modeDirect        // all bits decided: compare outputs directly
)

// validationProbe selects how to validate the pending group of flip sites.
func (a *Attack) validationProbe(groupSites []int) (reluSite int, mode int) {
	if _, hasLater := a.nextSiteWithUndecided(); !hasLater {
		return 0, modeDirect
	}
	layout := a.white.SiteLayout()
	decidedFlip := a.decidedFlipSites()
	group := make(map[int]bool, len(groupSites))
	for _, s := range groupSites {
		group[s] = true
	}
	lastGroupEvent := -1
	for i, ev := range layout {
		if ev.IsFlip && group[ev.ID] {
			lastGroupEvent = i
		}
	}
	for i, ev := range layout {
		if ev.IsFlip || i <= lastGroupEvent {
			continue
		}
		admissible := true
		informative := false
		for j := 0; j < i; j++ {
			f := layout[j]
			if !f.IsFlip {
				continue
			}
			gates := f.Seq == ev.Seq && f.Pos == ev.Pos-1
			if !decidedFlip[f.ID] && !gates {
				admissible = false
				break
			}
			if group[f.ID] && !gates {
				informative = true
			}
		}
		if admissible && informative {
			return ev.ID, modeKink
		}
	}
	return 0, modeDefer
}

// decidedFlipSites reports, per flip site, whether all its protected bits
// are decided (unprotected sites count as decided).
func (a *Attack) decidedFlipSites() map[int]bool {
	out := make(map[int]bool, a.white.NumFlipSites())
	for s := 0; s < a.white.NumFlipSites(); s++ {
		out[s] = true
	}
	for i, pn := range a.spec.Neurons {
		if !a.decided[i] {
			out[pn.Site] = false
		}
	}
	return out
}

// keyVectorValidation checks the candidate key currently written into net
// for the pending group of sites (§3.7). The caller must have confirmed a
// probe exists via validationProbe. A non-nil error is terminal; a
// hyperplane vote degraded by persistent transient failures simply abstains.
func (a *Attack) keyVectorValidation(net *nn.Network, groupSites []int, rng *rand.Rand) (bool, error) {
	reluSite, mode := a.validationProbe(groupSites)
	switch mode {
	case modeDirect:
		dsp := a.phase.ChildDetail("direct_compare")
		eq, err := a.directCompare(dsp, net, rng)
		dsp.End(obs.Bool("equivalent", eq))
		return eq, err
	case modeDefer:
		// Nothing to probe: treat as failure so the caller notices misuse.
		return false, nil
	}
	n := net.ReLUs()[reluSite].N
	sample := a.cfg.ValidationNeurons
	if sample > n {
		sample = n
	}
	neurons := rng.Perm(n)[:sample]

	var votes, participants atomic.Int64
	var err error
	// Concurrent votes coalesce: each vote's kink+background probe group
	// rides a shared oracle batch with the other workers' groups, so the
	// phase's round count scales with batches, not votes.
	a.withCoalescer(func() {
		err = a.parallelForErr(len(neurons), rng.Int63(), func(i int, wrng *rand.Rand) error {
			detected, ok, err := a.hyperplaneVote(net, reluSite, neurons[i], wrng)
			if err != nil {
				if err = a.fallthroughBottom(err); err != nil {
					return err
				}
				return nil // degraded vote: abstain
			}
			if !ok {
				return nil
			}
			participants.Add(1)
			if detected {
				votes.Add(1)
			}
			return nil
		})
	})
	if err != nil {
		return false, err
	}
	p := participants.Load()
	a.log.Debug("validation vote", "probe_relu", reluSite,
		"votes", votes.Load(), "participants", p)
	if p < 3 {
		// Too few observable hyperplanes to judge: suspicious, reject.
		return false, nil
	}
	return float64(votes.Load()) >= a.cfg.ValidationMajority*float64(p), nil
}

// nextSiteWithUndecided reports whether any spec bit is still undecided.
func (a *Attack) nextSiteWithUndecided() (int, bool) {
	for i, pn := range a.spec.Neurons {
		if !a.decided[i] {
			return pn.Site, true
		}
	}
	return 0, false
}

// hyperplaneVote checks whether the oracle has a kink where the candidate
// network predicts one for ReLU input (reluSite, j): it finds a white-box
// critical point x° of that input, then measures the second difference of
// the oracle output across x° along a direction that moves the input. A
// matching hyperplane bends the oracle output exactly at x°; a wrong
// prefix key leaves the oracle locally affine there. A control second
// difference away from x° calibrates background curvature (attention
// blocks) and unrelated hyperplanes.
//
// Under the bias-shift and weight-perturbation variants, the undecided key
// bit of the flip gating this ReLU moves the kink, so the vote accepts a
// kink at either candidate location.
func (a *Attack) hyperplaneVote(net *nn.Network, reluSite, j int, rng *rand.Rand) (detected, ok bool, err error) {
	vsp := a.phase.ChildDetail("vote", obs.Int("relu", reluSite), obs.Int("neuron", j))
	detected, ok, err = a.hyperplaneVoteSpanned(vsp, net, reluSite, j, rng)
	vsp.End(obs.Bool("detected", detected), obs.Bool("participated", ok))
	return detected, ok, err
}

func (a *Attack) hyperplaneVoteSpanned(vsp *obs.Span, net *nn.Network, reluSite, j int, rng *rand.Rand) (detected, ok bool, err error) {
	candidates := []*nn.Network{net}
	if a.ownHyperplaneMoves() {
		if gate := a.directGatedFlip(reluSite); gate >= 0 {
			if si, protected := a.specIndexOf(gate, j); protected && !a.decided[si] {
				alt := a.applier.clone(net)
				a.applier.apply(alt, a.spec.Neurons[si], si, true)
				candidates = append(candidates, alt)
			}
		}
	}
	participated := false
	for _, cand := range candidates {
		// A boundary may be unobservable in one region (covered by a
		// max pool, dead downstream path); per Lemma 3, retry critical
		// points in other regions until the white box confirms the kink is
		// sensitized there.
		for try := 0; try < a.cfg.MaxCriticalTries; try++ {
			x0, found := searchCriticalPointReLU(cand, reluSite, j, a.cfg, rng)
			if !found {
				a.log.Debug("no critical point for vote", "relu", reluSite, "neuron", j)
				break
			}
			v := a.voteDirection(cand, x0, reluSite, j, rng)
			d := a.cfg.probeStep(a.cfg.ValidationDelta)
			ctrl := tensor.VecClone(x0)
			tensor.AXPY(3*d, v, ctrl)

			// The white-box observability gate involves no oracle queries
			// and keeps the clean threshold.
			kinkW := secondDifferenceOf(cand, x0, v, d)
			bgW := secondDifferenceOf(cand, ctrl, v, d)
			if kinkW <= 10*bgW+a.cfg.AbsChange {
				continue // unobservable here; try another region
			}
			participated = true

			kink, background, err := a.oracleSecondDifferencePair(vsp, x0, ctrl, v, d)
			if err != nil {
				return false, false, err
			}
			if kink > 10*a.calibrated(background)+a.absChange() {
				return true, true, nil
			}
			break // observable on the white box but absent in the oracle
		}
	}
	return false, participated, nil
}

// directGatedFlip returns the flip site whose output this ReLU rectifies
// directly, or -1.
func (a *Attack) directGatedFlip(reluSite int) int {
	layout := a.white.SiteLayout()
	for i, ev := range layout {
		if !ev.IsFlip && ev.ID == reluSite && i > 0 {
			prev := layout[i-1]
			if prev.IsFlip && prev.Seq == ev.Seq && prev.Pos == ev.Pos-1 {
				return prev.ID
			}
		}
	}
	return -1
}

// specIndexOf finds the spec position of the protected neuron at
// (site, index), if any.
func (a *Attack) specIndexOf(site, index int) (int, bool) {
	for i, pn := range a.spec.Neurons {
		if pn.Site == site && pn.Index == index {
			return i, true
		}
	}
	return 0, false
}

// ownHyperplaneMoves reports whether the scheme lets a neuron's own key
// bit move its hyperplane (breaking the negation-specific half of Lemma 1).
func (a *Attack) ownHyperplaneMoves() bool {
	return a.spec.Scheme == hpnn.BiasShift || a.spec.Scheme == hpnn.WeightPerturb
}

// voteDirection picks the direction for the kink probe at ReLU input
// (reluSite, j). For contractive probe sites it uses the exact pre-image
// of e_j on the ReLU-input Jacobian, so the probe moves only the target
// input. For expansive sites no pre-image exists (§3.4); there it moves
// along the target's own gradient row, v = ∇u_j/‖∇u_j‖², which moves u_j
// by exactly 1 per unit step with the smallest possible excursion through
// input space (so few unrelated hyperplanes are crossed).
func (a *Attack) voteDirection(net *nn.Network, x0 []float64, reluSite, j int, rng *rand.Rand) []float64 {
	var aHat *tensor.Matrix
	if a.cfg.UseProductMatrix {
		tr := net.ForwardTraceToReLU(x0, reluSite)
		if m, err := productMatrixAtReLUOf(net, tr, reluSite); err == nil {
			aHat = m
		}
	}
	if aHat == nil {
		_, jac := net.ReluInJacobian(x0, reluSite)
		aHat = jac
	}
	width := net.ReLUs()[reluSite].N
	if width <= len(x0) {
		res := tensor.LeastSquares(aHat, tensor.Basis(aHat.Rows, j))
		if res.RelRes <= a.cfg.ResidualTol {
			return res.X
		}
	}
	g := aHat.Row(j)
	gn := tensor.Dot(g, g)
	if gn > 1e-18 {
		return tensor.VecScale(1/gn, g)
	}
	// Dead gradient: return something normalized; the vote will simply not
	// detect a kink.
	dir := make([]float64, len(x0))
	for i := range dir {
		dir[i] = rng.NormFloat64()
	}
	return tensor.VecScale(1/tensor.Norm2(dir), dir)
}

// oracleSecondDifferencePair measures the kink and background second
// differences of one hyperplane vote as a single six-point probe group
// {x0, x0±δv, ctrl, ctrl±δv} — one oracle round through the planner where
// the scalar path took six. Values and query counts are unchanged: each
// second difference vanishes when the oracle is affine on its probed
// segment. Under a declared-noisy oracle the group repeats cfg.ProbeVotes
// times and the per-side median magnitudes are used — the median is robust
// to a single outlier draw, and with ProbeVotes=1 this is exactly one
// group, issuing the paper's queries in the scalar order.
func (a *Attack) oracleSecondDifferencePair(sp *obs.Span, x0, ctrl, v []float64, d float64) (kink, background float64, err error) {
	votes := a.cfg.ProbeVotes
	if votes < 1 {
		votes = 1
	}
	kinks := make([]float64, 0, votes)
	bgs := make([]float64, 0, votes)
	for vi := 0; vi < votes; vi++ {
		x := tensor.GetMatrix(6, len(x0))
		fillTriple(x, 0, x0, v, d)
		fillTriple(x, 3, ctrl, v, d)
		y, err := a.multi(sp, x)
		tensor.PutMatrix(x)
		if err != nil {
			return 0, 0, err
		}
		kinks = append(kinks, maxAbsSecondDiff(y.Row(0), y.Row(1), y.Row(2)))
		bgs = append(bgs, maxAbsSecondDiff(y.Row(3), y.Row(4), y.Row(5)))
		tensor.PutMatrix(y)
	}
	sort.Float64s(kinks)
	sort.Float64s(bgs)
	return kinks[len(kinks)/2], bgs[len(bgs)/2], nil
}

// fillTriple writes the second-difference probe triple {x, x+δv, x−δv} into
// rows at, at+1, at+2 of m — the exact order the scalar path queried them.
func fillTriple(m *tensor.Matrix, at int, x, v []float64, d float64) {
	m.SetRow(at, x)
	m.SetRow(at+1, x)
	tensor.AXPY(d, v, m.Row(at+1))
	m.SetRow(at+2, x)
	tensor.AXPY(-d, v, m.Row(at+2))
}

// maxAbsSecondDiff is ‖yp + ym − 2·y0‖∞.
func maxAbsSecondDiff(y0, yp, ym []float64) float64 {
	m := 0.0
	for i := range y0 {
		s := yp[i] + ym[i] - 2*y0[i]
		if s < 0 {
			s = -s
		}
		if s > m {
			m = s
		}
	}
	return m
}

// secondDifferenceOf evaluates the same probe on a white-box network,
// over pooled buffers (the vote runs it twice per critical point).
func secondDifferenceOf(net *nn.Network, x, v []float64, d float64) float64 {
	p, q := len(x), net.OutSize()
	xp, xm := tensor.GetVec(p), tensor.GetVec(p)
	y0, yp, ym := tensor.GetVec(q), tensor.GetVec(q), tensor.GetVec(q)
	defer tensor.PutVec(xp)
	defer tensor.PutVec(xm)
	defer tensor.PutVec(y0)
	defer tensor.PutVec(yp)
	defer tensor.PutVec(ym)
	copy(xp, x)
	tensor.AXPY(d, v, xp)
	copy(xm, x)
	tensor.AXPY(-d, v, xm)
	net.ForwardInto(y0, x)
	net.ForwardInto(yp, xp)
	net.ForwardInto(ym, xm)
	return maxAbsSecondDiff(y0, yp, ym)
}

// directCompare checks functional equivalence between the candidate
// network and the oracle on random inputs. The tolerance carries the
// declared oracle degradation (cfg.oracleTol): under noise or quantization
// the oracle's answer legitimately strays from the true function by that
// much, and without the pad a perfectly recovered key would be rejected.
// The pad is exactly zero for a clean oracle.
func (a *Attack) directCompare(sp *obs.Span, net *nn.Network, rng *rand.Rand) (bool, error) {
	p := net.InSize()
	for i := 0; i < a.cfg.ValidationSamples; i++ {
		x := randomPoint(p, a.cfg.InputLim, rng)
		yo, err := a.query(sp, x)
		if err != nil {
			return false, err
		}
		yw := net.Forward(x)
		if a.orc.Softmax() {
			yw = tensor.Softmax(yw)
		}
		tol := a.cfg.EquivTol*(1+tensor.NormInf(yo)) + a.cfg.oracleTol()
		if tensor.NormInf(tensor.VecSub(yo, yw)) > tol {
			return false, nil
		}
	}
	return true, nil
}
