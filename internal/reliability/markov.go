// Package reliability implements the fault-resilience analysis of the
// paper's Appendix A: continuous-time Markov chain (CTMC) models for
// RS(k,m) (Figure 14) and SRS(k,m,s) (Figure 15) storage, solved for
// annual reliability (Figure 2) and interval availability (Figure 16).
//
// The SRS model's structural inputs — the probability f_i that the
// code survives i simultaneous node failures, and the hypergeometric
// data/parity failure split p_ij — are computed exactly from the srs
// package's layout enumeration, so the analysis shares its ground
// truth with the storage implementation.
package reliability

import (
	"fmt"
	"math"

	"ring/internal/srs"
)

// Chain is a CTMC over a small state space: Q is the generator matrix
// (Q[i][j] is the i->j transition rate for i != j; diagonals make rows
// sum to zero) and Absorbing is the index of the data-loss state.
type Chain struct {
	Q         [][]float64
	Absorbing int
}

// States returns the state count.
func (c *Chain) States() int { return len(c.Q) }

// validate panics on malformed generators; models are built by this
// package, so errors are programming bugs.
func (c *Chain) validate() {
	for i, row := range c.Q {
		if len(row) != len(c.Q) {
			panic("reliability: generator not square")
		}
		sum := 0.0
		for j, v := range row {
			if i != j && v < 0 {
				panic(fmt.Sprintf("reliability: negative rate Q[%d][%d]=%v", i, j, v))
			}
			sum += v
		}
		if math.Abs(sum) > 1e-6*math.Abs(c.Q[i][i])+1e-9 {
			panic(fmt.Sprintf("reliability: row %d sums to %v", i, sum))
		}
	}
}

// uniformized returns the DTMC matrix P = I + Q/lambda (non-negative,
// row-stochastic) and the uniformization rate lambda.
func (c *Chain) uniformized() ([][]float64, float64) {
	lambda := 0.0
	for i := range c.Q {
		if d := -c.Q[i][i]; d > lambda {
			lambda = d
		}
	}
	n := len(c.Q)
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
		for j := range p[i] {
			v := 0.0
			if lambda > 0 {
				v = c.Q[i][j] / lambda
			}
			if i == j {
				v++
			}
			p[i][j] = v
		}
	}
	return p, lambda
}

// matMul multiplies two dense square matrices.
func matMul(a, b [][]float64) [][]float64 {
	n := len(a)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			aik := a[i][k]
			if aik == 0 {
				continue
			}
			row := b[k]
			for j := 0; j < n; j++ {
				out[i][j] += aik * row[j]
			}
		}
	}
	return out
}

// vecMat computes v * M for a row vector.
func vecMat(v []float64, m [][]float64) []float64 {
	n := len(v)
	out := make([]float64, n)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m[i]
		for j := 0; j < n; j++ {
			out[j] += vi * row[j]
		}
	}
	return out
}

// expStep computes e^{Q dt} by uniformization: a Poisson-weighted sum
// of powers of the uniformized DTMC. All terms are non-negative, so
// there is no cancellation — essential for resolving 14-nines
// reliabilities. lambda*dt must be modest (<= ~600) to keep the
// Poisson weights representable; Transient splits larger horizons.
func (c *Chain) expStep(dt float64) [][]float64 {
	p, lambda := c.uniformized()
	n := len(c.Q)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	a := lambda * dt
	// Term k=0: weight e^{-a} * I.
	w := math.Exp(-a)
	term := identity(n)
	addScaled(out, term, w)
	// Iterate until the remaining Poisson mass is negligible.
	cum := w
	for k := 1; cum < 1-1e-16 && k < 100000; k++ {
		term = matMul(term, p)
		w *= a / float64(k)
		if w > 0 {
			addScaled(out, term, w)
		}
		cum += w
		if k > int(a)+60 && w < 1e-18 {
			break
		}
	}
	return out
}

func identity(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	return m
}

func addScaled(dst, src [][]float64, w float64) {
	for i := range dst {
		for j := range dst[i] {
			dst[i][j] += w * src[i][j]
		}
	}
}

// Transient returns the state distribution at time t starting from
// state 0, i.e. p0 * e^{Qt}. Large lambda*t horizons are handled by
// computing a small-step matrix via uniformization and squaring it
// (both operations preserve non-negativity, so precision holds).
func (c *Chain) Transient(t float64) []float64 {
	c.validate()
	n := len(c.Q)
	p0 := make([]float64, n)
	p0[0] = 1
	if t <= 0 {
		return p0
	}
	_, lambda := c.uniformized()
	if lambda == 0 {
		return p0
	}
	// Choose dt so lambda*dt <= 400, and the number of doublings to
	// reach t.
	squarings := 0
	dt := t
	for lambda*dt > 400 {
		dt /= 2
		squarings++
	}
	m := c.expStep(dt)
	for s := 0; s < squarings; s++ {
		m = matMul(m, m)
	}
	return vecMat(p0, m)
}

// Reliability returns R(t) = 1 - P_absorbing(t): the probability that
// no data has been lost by time t.
func (c *Chain) Reliability(t float64) float64 {
	p := c.Transient(t)
	r := 1 - p[c.Absorbing]
	if r < 0 {
		return 0
	}
	return r
}

// Repairable returns a copy of the chain in which the absorbing
// data-loss state is repaired (restored from external backup and
// re-initialized) at the given rate. The availability analysis of
// Figure 16 uses this variant: with an absorbing fail state, interval
// availability would be dominated by the data-loss probability and
// more-redundant codes would paradoxically look more available,
// contradicting the figure's "more nodes in the stripe decreases the
// availability" ordering. Repairing the fail state at the rebuild
// rate recovers exactly that ordering.
func (c *Chain) Repairable(rate float64) *Chain {
	n := len(c.Q)
	q := make([][]float64, n)
	for i := range q {
		q[i] = append([]float64(nil), c.Q[i]...)
	}
	q[c.Absorbing][0] += rate
	q[c.Absorbing][c.Absorbing] -= rate
	return &Chain{Q: q, Absorbing: c.Absorbing}
}

// IntervalAvailability returns Aav(tau) = (1/tau) * Integral of A(t),
// computed by trapezoidal integration over N power-iterated steps of
// the step matrix.
func (c *Chain) IntervalAvailability(tau float64) float64 {
	c.validate()
	const steps = 4096
	dt := tau / steps
	_, lambda := c.uniformized()
	if lambda == 0 {
		return 1
	}
	// Build the one-step matrix (split if lambda*dt too large).
	sub := 1
	for lambda*dt/float64(sub) > 400 {
		sub *= 2
	}
	m := c.expStep(dt / float64(sub))
	for s := 1; s < sub; s *= 2 {
		m = matMul(m, m)
	}
	n := len(c.Q)
	p := make([]float64, n)
	p[0] = 1
	sum := 0.0
	prev := 1.0 // A(0)
	for i := 0; i < steps; i++ {
		p = vecMat(p, m)
		cur := p[0]
		sum += (prev + cur) / 2 * dt
		prev = cur
	}
	return sum / tau
}

// Nines converts a probability p into "number of nines":
// -log10(1 - p), capped at 16 (the resolution of float64).
func Nines(p float64) float64 {
	if p >= 1 {
		return 16
	}
	n := -math.Log10(1 - p)
	if n > 16 {
		return 16
	}
	if n < 0 {
		return 0
	}
	return n
}

// Params are the physical inputs of the Appendix A models.
type Params struct {
	// Lambda is the failure rate of a single node, per year.
	Lambda float64
	// DataBytes is the full data set size C of Eqn. (6).
	DataBytes float64
	// NetBytesPerSec is the recovery network bandwidth B_N.
	NetBytesPerSec float64
	// CompSecPerByte models T_comp(C) = CompSecPerByte * C.
	CompSecPerByte float64
}

// DefaultParams land the Figure 2 reproduction in the paper's 2–14
// nines band: monthly node failures, 600 GiB of data, a 40 Gb/s
// recovery network, and erasure-coding compute at about 1 GB/s.
func DefaultParams() Params {
	return Params{
		Lambda:         12, // one failure per node-month
		DataBytes:      600 * (1 << 30),
		NetBytesPerSec: 5e9,
		CompSecPerByte: 1e-9,
	}
}

const secondsPerYear = 365.25 * 24 * 3600

// Mu returns the parity-node rebuild rate (per year) of Eqn. (6):
// mu = 1 / T_reconst with T_reconst = C/B_N + T_comp(C).
func (p Params) Mu() float64 {
	t := p.DataBytes/p.NetBytesPerSec + p.CompSecPerByte*p.DataBytes
	return secondsPerYear / t
}

// RSChain builds the Figure 14 Markov model of RS(k,m): states
// 0..m count failures, state m+1 is the absorbing fail state.
func RSChain(k, m int, prm Params) *Chain {
	lam, mu := prm.Lambda, prm.Mu()
	n := m + 2
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	for i := 0; i <= m; i++ {
		fail := float64(k+m-i) * lam
		q[i][i+1] += fail
		q[i][i] -= fail
		if i > 0 {
			q[i][i-1] += mu
			q[i][i] -= mu
		}
	}
	return &Chain{Q: q, Absorbing: m + 1}
}

// SRSChain builds the Figure 15 model of SRS(k,m,s): states 0..u count
// failures, with survival probabilities p_i = f_{i+1}/f_i from exact
// enumeration, state-dependent recovery rates mixing data-node
// (mu*k/s) and parity-node (mu) rebuild speeds weighted by the
// hypergeometric p_ij, and transitions to the absorbing state u+1.
func SRSChain(layout *srs.Layout, prm Params) *Chain {
	lam, mu := prm.Lambda, prm.Mu()
	s, m, k := layout.S, layout.M, layout.K
	// f[i] = probability the code survives i simultaneous failures.
	u := layout.MaxTolerated()
	f := make([]float64, u+2)
	for i := 0; i <= u+1; i++ {
		f[i] = layout.TolerationProbability(i)
	}
	n := u + 2
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	for i := 0; i <= u; i++ {
		total := float64(s+m-i) * lam
		var pSurvive float64
		if f[i] > 0 {
			pSurvive = f[i+1] / f[i]
		}
		if i+1 <= u && pSurvive > 0 {
			q[i][i+1] += total * pSurvive
			q[i][i] -= total * pSurvive
		}
		if lose := total * (1 - pSurvive); lose > 0 {
			q[i][u+1] += lose
			q[i][i] -= lose
		}
		if i > 0 {
			q[i][i-1] += srsRecoveryRate(i, s, m, k, mu)
			q[i][i] -= srsRecoveryRate(i, s, m, k, mu)
		}
	}
	return &Chain{Q: q, Absorbing: u + 1}
}

// srsRecoveryRate computes mu_i = sum_j mu_ij * p_ij of Appendix A.2.
func srsRecoveryRate(i, s, m, k int, mu float64) float64 {
	// p_ij: probability that j of the i failed nodes are data nodes,
	// hypergeometric over s data + m parity nodes, truncated to
	// i-j <= m.
	denom := 0.0
	for x := 0; x <= i; x++ {
		if i-x > m || x > s {
			continue
		}
		denom += float64(srs.CountSubsets(s, x) * srs.CountSubsets(m, i-x))
	}
	if denom == 0 {
		return mu
	}
	rate := 0.0
	for j := 0; j <= i; j++ {
		if i-j > m || j > s {
			continue
		}
		pij := float64(srs.CountSubsets(s, j)*srs.CountSubsets(m, i-j)) / denom
		// A data node holds k/s of a parity node's data, so with
		// recovery time linear in data size its rebuild rate is
		// mu_D = (s/k) mu. (The paper's Appendix prints mu_D = (k/s)mu,
		// which contradicts its own statement that stretched data
		// nodes store less and therefore recover faster; we use the
		// physically consistent rate. See DESIGN.md.)
		muij := float64(j)/float64(i)*float64(s)/float64(k)*mu + float64(i-j)/float64(i)*mu
		rate += pij * muij
	}
	return rate
}
