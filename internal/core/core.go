// Package core implements the paper's primary contribution: the
// concurrent probabilistic protocols for distributed selfish load
// balancing on networks of processors with speeds, for uniform tasks
// (Algorithm 1, Section 3) and weighted tasks (Algorithm 2, Section 4),
// together with the baseline protocol of Berenbrink–Hoefer–Sauerwald
// (SODA 2011, the paper's reference [6]), the potential functions
// Φ₀, Φ₁, Ψ₀, Ψ₁ and L_Δ used in the analysis, the Nash-equilibrium
// predicates, a synchronous round engine, and the theoretical bound
// formulas of Theorems 1.1–1.3.
//
// All randomness flows through deterministic splittable streams
// (package rng): the per-round, per-node stream used for node i in round
// t depends only on (seed, t, i), so the sequential engine here, the
// parallel shard engine and the multi-process cluster in package shard
// generate identical trajectories for the same seed.
package core

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/spectral"
)

// Common errors returned by constructors and runners.
var (
	ErrNilGraph      = errors.New("core: nil graph")
	ErrDisconnected  = errors.New("core: graph must be connected")
	ErrSpeedMismatch = errors.New("core: speeds length must equal vertex count")
)

// System bundles the static problem instance: the network, the processor
// speeds, and the derived spectral quantity λ₂ the convergence bounds
// depend on. A System is immutable and safe for concurrent use.
type System struct {
	g       *graph.Graph
	speeds  machine.Speeds
	lambda2 float64

	sMax, sMin, sSum float64
	maxDeg           int
}

// SystemOption customizes NewSystem.
type SystemOption func(*systemConfig)

type systemConfig struct {
	lambda2    float64
	hasLambda2 bool
}

// WithLambda2 supplies a known algebraic connectivity (e.g. a closed form
// for a standard graph family), skipping the numeric eigensolve.
func WithLambda2(lambda2 float64) SystemOption {
	return func(c *systemConfig) {
		c.lambda2 = lambda2
		c.hasLambda2 = true
	}
}

// NewSystem validates the instance and computes λ₂ (unless supplied).
// The speed vector must be scaled so that s_min = 1 (paper Section 1.1).
func NewSystem(g *graph.Graph, speeds machine.Speeds, opts ...SystemOption) (*System, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	if len(speeds) != g.N() {
		return nil, fmt.Errorf("%w: %d speeds for %d vertices", ErrSpeedMismatch, len(speeds), g.N())
	}
	if err := speeds.Validate(); err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, ErrDisconnected
	}
	var cfg systemConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	lambda2 := cfg.lambda2
	if !cfg.hasLambda2 {
		l2, err := spectral.Lambda2(g)
		if err != nil {
			return nil, fmt.Errorf("compute lambda2: %w", err)
		}
		lambda2 = l2
	}
	if lambda2 <= 0 && g.N() > 1 {
		return nil, fmt.Errorf("core: non-positive lambda2 %g for connected graph", lambda2)
	}
	sc := make(machine.Speeds, len(speeds))
	copy(sc, speeds)
	return &System{
		g:       g,
		speeds:  sc,
		lambda2: lambda2,
		sMax:    sc.Max(),
		sMin:    sc.Min(),
		sSum:    sc.Sum(),
		maxDeg:  g.MaxDegree(),
	}, nil
}

// Graph returns the network.
func (s *System) Graph() *graph.Graph { return s.g }

// N returns the number of processors.
func (s *System) N() int { return s.g.N() }

// Speed returns sᵢ.
func (s *System) Speed(i int) float64 { return s.speeds[i] }

// Speeds returns a copy of the speed vector.
func (s *System) Speeds() machine.Speeds {
	out := make(machine.Speeds, len(s.speeds))
	copy(out, s.speeds)
	return out
}

// Lambda2 returns λ₂ of the network's Laplacian.
func (s *System) Lambda2() float64 { return s.lambda2 }

// SMax returns the maximum speed.
func (s *System) SMax() float64 { return s.sMax }

// SMin returns the minimum speed (1 after scaling).
func (s *System) SMin() float64 { return s.sMin }

// STotal returns S = Σ sᵢ, the total capacity.
func (s *System) STotal() float64 { return s.sSum }

// MaxDegree returns Δ.
func (s *System) MaxDegree() int { return s.maxDeg }

// DefaultAlpha returns the paper's migration damping α = 4·s_max
// (Section 3, below Algorithm 1).
func (s *System) DefaultAlpha() float64 { return 4 * s.sMax }

// AlphaForGranularity returns α = 4·s_max/ε̄, the damping required for the
// exact-Nash phase when speeds have granularity ε̄ (Section 3.2).
func (s *System) AlphaForGranularity(eps float64) (float64, error) {
	if eps <= 0 || eps > 1 {
		return 0, fmt.Errorf("core: granularity must be in (0,1], got %g", eps)
	}
	return 4 * s.sMax / eps, nil
}
