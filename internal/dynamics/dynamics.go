// Package dynamics is the deterministic event layer for dynamic
// workloads: online task arrivals (Poisson background traffic plus
// periodic bursts), speed-proportional task completions, and node churn
// (join/leave with incident-edge rewiring).
//
// Determinism is the whole point. Every event stream is keyed through
// the rng keying contract — the events of round r come from
// rng.New(Seed).At(r, channel), one channel constant per event kind —
// so a Workload is a pure function of (Seed, round, static instance
// data). The driver applies the batch for round r immediately before
// the protocol's round-r decisions on every engine (sequential, shard,
// cluster), which keeps dynamic trajectories bit-identical
// across engines exactly like static ones.
package dynamics

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/rng"
)

// Event-stream channels: each event kind draws from its own
// rng.At(round, channel) stream so the kinds are independent and adding
// one cannot perturb another.
const (
	chArrival uint64 = iota
	chBurst
	chService
	chWeights
	chChurn
)

// Workload describes a dynamic task workload. The zero value is the
// static workload (no events). All event streams derive from Seed
// independently of the protocol's RunOpts.Seed, so the same traffic
// pattern can be replayed against different protocol randomness and
// vice versa.
type Workload struct {
	// Seed keys every event stream.
	Seed uint64
	// ArrivalRate λ ≥ 0 is the expected number of tasks arriving per
	// round (Poisson), spread uniformly over the nodes.
	ArrivalRate float64
	// BurstEvery > 0 makes BurstSize tasks arrive at one uniformly
	// random node every BurstEvery rounds — the adversarial hot-spot the
	// recovery metrics watch.
	BurstEvery int
	BurstSize  int64
	// ServiceRate μ ≥ 0 makes node i complete Poisson(μ·sᵢ) tasks per
	// round (clamped to its queue): faster machines drain faster, the
	// natural speed-proportional service model.
	ServiceRate float64
	// MinWeight/MaxWeight bound the weights of arriving weighted tasks
	// (defaults 0.1 and 1; must satisfy 0 < MinWeight ≤ MaxWeight ≤ 1).
	MinWeight, MaxWeight float64
}

// IsZero reports whether the workload generates no events.
func (w Workload) IsZero() bool {
	return w.ArrivalRate <= 0 && w.ServiceRate <= 0 && (w.BurstEvery <= 0 || w.BurstSize <= 0)
}

// Validate checks the workload parameters.
func (w Workload) Validate() error {
	if w.ArrivalRate < 0 || w.ServiceRate < 0 || w.BurstSize < 0 || w.BurstEvery < 0 {
		return fmt.Errorf("dynamics: negative workload parameter: %+v", w)
	}
	if !isFinite(w.ArrivalRate) || !isFinite(w.ServiceRate) {
		return fmt.Errorf("dynamics: non-finite workload rate: %+v", w)
	}
	lo, hi := w.weightBounds()
	if lo <= 0 || hi > 1 || lo > hi {
		return fmt.Errorf("dynamics: task weights must satisfy 0 < min ≤ max ≤ 1, got [%g, %g]", lo, hi)
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (w Workload) weightBounds() (lo, hi float64) {
	lo, hi = w.MinWeight, w.MaxWeight
	if lo == 0 {
		lo = 0.1
	}
	if hi == 0 {
		hi = 1
	}
	return lo, hi
}

// arrivalCounts draws the round's per-node arrival counts (background
// Poisson traffic spread by an equal multinomial, plus the burst).
// Returns nil when nothing arrives.
func (w Workload) arrivalCounts(base *rng.Stream, n int, round uint64) []int64 {
	var arr []int64
	if w.ArrivalRate > 0 {
		s := base.At(round, chArrival)
		if total := s.Poisson(w.ArrivalRate); total > 0 {
			arr = make([]int64, n)
			for i, c := range s.EqualSplit(total, n) {
				arr[i] = int64(c)
			}
		}
	}
	if w.BurstEvery > 0 && w.BurstSize > 0 && round%uint64(w.BurstEvery) == 0 {
		if arr == nil {
			arr = make([]int64, n)
		}
		arr[base.At(round, chBurst).Intn(n)] += w.BurstSize
	}
	return arr
}

// serviceCounts draws the round's per-node completion requests,
// Poisson(μ·sᵢ) per node from node-split streams. Returns nil when the
// service process is disabled or idle this round.
func (w Workload) serviceCounts(base *rng.Stream, sys *core.System, round uint64) []int64 {
	if w.ServiceRate <= 0 {
		return nil
	}
	s := base.At(round, chService)
	var dep []int64
	for i := 0; i < sys.N(); i++ {
		if k := s.Split(uint64(i)).Poisson(w.ServiceRate * sys.Speed(i)); k > 0 {
			if dep == nil {
				dep = make([]int64, sys.N())
			}
			dep[i] = int64(k)
		}
	}
	return dep
}

// UniformEvents returns the uniform-model event batch for the given
// (global) round, or nil when the round carries no events. It is a pure
// function of (w.Seed, sys's size and speeds, round).
func (w Workload) UniformEvents(sys *core.System, round uint64) *core.EventBatch {
	if w.IsZero() || round == 0 {
		return nil
	}
	base := rng.New(w.Seed)
	arr := w.arrivalCounts(base, sys.N(), round)
	dep := w.serviceCounts(base, sys, round)
	if arr == nil && dep == nil {
		return nil
	}
	return &core.EventBatch{Arrivals: arr, Departures: dep}
}

// WeightedEvents is the weighted-model analogue of UniformEvents: the
// same arrival/service counting processes, with each arriving task
// drawing its weight uniformly from [MinWeight, MaxWeight] on a
// per-node stream.
func (w Workload) WeightedEvents(sys *core.System, round uint64) *core.EventBatch {
	if w.IsZero() || round == 0 {
		return nil
	}
	base := rng.New(w.Seed)
	arr := w.arrivalCounts(base, sys.N(), round)
	dep := w.serviceCounts(base, sys, round)
	if arr == nil && dep == nil {
		return nil
	}
	batch := &core.EventBatch{WeightDepartures: dep}
	if arr != nil {
		lo, hi := w.weightBounds()
		ws := base.At(round, chWeights)
		batch.WeightArrivals = make([][]float64, len(arr))
		for i, c := range arr {
			if c == 0 {
				continue
			}
			s := ws.Split(uint64(i))
			weights := make([]float64, c)
			for t := range weights {
				weights[t] = lo + (hi-lo)*s.Float64()
			}
			batch.WeightArrivals[i] = weights
		}
	}
	return batch
}

// churnStream derives the deterministic stream for a churn event
// applied before the given global round; seq separates multiple events
// at the same round into independent streams.
func churnStream(seed uint64, round, seq int) *rng.Stream {
	return rng.New(seed).At(uint64(round), chChurn).Split(uint64(seq))
}
