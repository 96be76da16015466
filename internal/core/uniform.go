package core

import "repro/internal/rng"

// UniformProtocol is one synchronous round of a load-balancing protocol
// on a uniform-task state. Step must use only streams derived from base
// via Split so that trajectories are reproducible; it returns the number
// of migrated tasks.
type UniformProtocol interface {
	Name() string
	Step(st *UniformState, round uint64, base *rng.Stream) int64
}

// UniformNodeProtocol is a UniformProtocol whose round factorizes into
// independent per-node decisions on the round-start snapshot: node i's
// migrations depend only on its own task count, the loads of itself and
// its direct neighbors, and the stream base.At(round, i). That locality
// is exactly the paper's model, and it is what lets the shard engine and
// the cluster (package shard) execute the decisions in parallel while
// reproducing the sequential trajectory bit-for-bit.
type UniformNodeProtocol interface {
	UniformProtocol
	// DecideNode computes node i's outgoing migrations for one round
	// using only information local to i: its task count wi, its load li,
	// the round-start loads of its neighbors (nbLoads, indexed like
	// Graph.Neighbors(i)), and its per-round stream. The first deg(i)
	// entries of out are overwritten with the number of tasks sent to
	// each neighbor; the return value is their sum.
	DecideNode(sys *System, i int, wi int64, li float64, nbLoads []float64, nodeStream *rng.Stream, out []int64) int64
}

// Algorithm1 is the paper's protocol for uniform tasks on machines with
// speeds (p. 5):
//
//	for each task on node i in parallel:
//	  choose neighbor j uniformly at random
//	  if ℓᵢ − ℓⱼ > 1/sⱼ:
//	    move with probability
//	    p_ij = (deg(i)/d_ij) · (ℓᵢ−ℓⱼ) / (α·(1/sᵢ+1/sⱼ)·Wᵢ)
//
// The implementation aggregates the per-task coin flips into one draw
// per edge: a task moves to neighbor j with probability q_j = p_ij/deg
// (the uniform neighbor pick times the coin), so the per-neighbor mover
// counts are jointly Multinomial(wi; q_1, …, q_deg, stay) and are drawn
// directly as sequential conditional binomials over the edges. This is
// distributionally identical to the per-task loop (tasks are
// exchangeable, so only the counts matter) at O(deg) draws per node —
// each one O(1) expected time via rng.Binomial — instead of O(m).
type Algorithm1 struct {
	// Alpha is the migration damping; zero means the paper's default
	// 4·s_max. The exact-Nash phase of Theorem 1.2 requires 4·s_max/ε̄.
	Alpha float64
}

var _ UniformNodeProtocol = Algorithm1{}

// Name implements UniformProtocol.
func (p Algorithm1) Name() string { return "algorithm1" }

// effectiveAlpha resolves the damping parameter for a system.
func (p Algorithm1) effectiveAlpha(sys *System) float64 {
	if p.Alpha > 0 {
		return p.Alpha
	}
	return sys.DefaultAlpha()
}

// Step implements UniformProtocol.
func (p Algorithm1) Step(st *UniformState, round uint64, base *rng.Stream) int64 {
	return stepNodewise(st, round, base, p)
}

// DecideNode implements UniformNodeProtocol: the aggregated sampling of
// node i's per-task coin flips. The joint distribution of the mover
// counts is Multinomial(wi; q_1, …, q_deg, stay) with q_j = p_ij/deg, so
// the counts are drawn as sequential conditional binomials over the
// eligible edges: neighbor idx receives Binomial(remaining, q/rest)
// where rest is the probability mass not yet consumed. One O(1)-expected
// draw per eligible edge, no intermediate per-neighbor pick counts.
func (p Algorithm1) DecideNode(sys *System, i int, wi int64, li float64, nbLoads []float64, nodeStream *rng.Stream, out []int64) int64 {
	nbs := sys.g.Neighbors(i)
	deg := len(nbs)
	for idx := 0; idx < deg; idx++ {
		out[idx] = 0
	}
	if wi == 0 {
		return 0
	}
	alpha := p.effectiveAlpha(sys)
	invDeg := 1 / float64(deg)
	remaining := int(wi)
	rest := 1.0 // probability mass of the categories not yet drawn
	moves := int64(0)
	for idx, jj := range nbs {
		if remaining == 0 {
			break
		}
		j := int(jj)
		lj := nbLoads[idx]
		if li-lj <= 1/sys.speeds[j] {
			continue
		}
		q := migrationProb(sys, i, j, li, lj, alpha, float64(wi)) * invDeg
		if q <= 0 {
			continue
		}
		// Clamp the conditional like rng.MultinomialInto: rest can drift
		// at or below q when the eligible edges carry the full mass.
		cp := 1.0
		if rest > q {
			cp = q / rest
		}
		k := nodeStream.Binomial(remaining, cp)
		if k > 0 {
			out[idx] = int64(k)
			moves += int64(k)
			remaining -= k
		}
		rest -= q
	}
	return moves
}

// stepNodewise runs one synchronous round of a node-decomposable protocol
// on the sequential engine: decide every node on the round-start load
// snapshot, then apply the aggregated deltas. Package shard executes the
// same DecideNode calls concurrently; because node i's round-r stream
// base.At(r, i) is derived purely from the seed, the trajectories agree
// exactly.
func stepNodewise(st *UniformState, round uint64, base *rng.Stream, p UniformNodeProtocol) int64 {
	sys := st.sys
	g := sys.g
	loads := st.Loads() // round-start snapshot: all tasks act concurrently
	delta := make([]int64, g.N())
	nb := make([]float64, sys.maxDeg)
	out := make([]int64, sys.maxDeg)
	roundStream := base.Split(round)
	moves := int64(0)
	for i, wi := range st.counts {
		if wi == 0 {
			continue
		}
		nbs := g.Neighbors(i)
		deg := len(nbs)
		for idx, jj := range nbs {
			nb[idx] = loads[jj]
		}
		m := p.DecideNode(sys, i, wi, loads[i], nb[:deg], roundStream.Split(uint64(i)), out)
		if m == 0 {
			continue
		}
		moves += m
		delta[i] -= m
		for idx := 0; idx < deg; idx++ {
			if out[idx] > 0 {
				delta[nbs[idx]] += out[idx]
			}
		}
	}
	st.applyDelta(delta)
	return moves
}

// migrationProb returns p_ij for node weight wi (uniform: task count;
// weighted: total weight) with the given loads and damping.
func migrationProb(sys *System, i, j int, li, lj, alpha, wi float64) float64 {
	deg := float64(sys.g.Degree(i))
	dij := float64(sys.g.DMax(i, j))
	p := deg / dij * (li - lj) / (alpha * (1/sys.speeds[i] + 1/sys.speeds[j]) * wi)
	if p > 1 {
		// Cannot occur for α ≥ s_max (p ≤ 1/α·sᵢ·(ℓᵢ−ℓⱼ)·sᵢ/wᵢ ≤ 1/α·s_max
		// is bounded by 1), but clamp defensively for user-chosen α.
		p = 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// Algorithm1PerTask is the literal per-task formulation of Algorithm 1:
// every task independently draws a neighbor and a coin. It samples from
// exactly the same distribution as Algorithm1 but costs O(m) per round.
// Kept as the reference implementation for equivalence tests and for the
// batching ablation benchmark.
type Algorithm1PerTask struct {
	Alpha float64
}

var _ UniformNodeProtocol = Algorithm1PerTask{}

// Name implements UniformProtocol.
func (p Algorithm1PerTask) Name() string { return "algorithm1-pertask" }

// Step implements UniformProtocol.
func (p Algorithm1PerTask) Step(st *UniformState, round uint64, base *rng.Stream) int64 {
	return stepNodewise(st, round, base, p)
}

// DecideNode implements UniformNodeProtocol: the literal per-task loop.
func (p Algorithm1PerTask) DecideNode(sys *System, i int, wi int64, li float64, nbLoads []float64, nodeStream *rng.Stream, out []int64) int64 {
	nbs := sys.g.Neighbors(i)
	deg := len(nbs)
	for idx := 0; idx < deg; idx++ {
		out[idx] = 0
	}
	if wi == 0 {
		return 0
	}
	alpha := Algorithm1{Alpha: p.Alpha}.effectiveAlpha(sys)
	moves := int64(0)
	for t := int64(0); t < wi; t++ {
		idx := nodeStream.Intn(deg)
		j := int(nbs[idx])
		lj := nbLoads[idx]
		if li-lj <= 1/sys.speeds[j] {
			continue
		}
		pij := migrationProb(sys, i, j, li, lj, alpha, float64(wi))
		if nodeStream.Bernoulli(pij) {
			out[idx]++
			moves++
		}
	}
	return moves
}
