package harness

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/rng"
	"repro/internal/task"
)

// DynamicOpts configures a dynamic-workload run: a fixed round horizon
// over which tasks arrive and complete (dynamics.Workload) and nodes
// join and leave (the churn plan).
type DynamicOpts struct {
	// MaxRounds is the horizon (required, > 0); dynamic runs always
	// execute the full horizon — steady-state metrics, not convergence,
	// are the point.
	MaxRounds int
	// Seed keys the protocol randomness. Each churn epoch e draws its
	// protocol streams from rng.New(Seed).Split(e), so epochs are
	// independent and the whole trajectory is a pure function of
	// (Seed, Workload.Seed, plan).
	Seed uint64
	// Workload generates the arrival/completion events, keyed by its own
	// Seed and the global round number.
	Workload dynamics.Workload
	// Churn is the topology-change plan; events outside [1, MaxRounds]
	// are ignored.
	Churn []dynamics.ChurnEvent
	// TraceEvery samples potentials every k rounds (default 1, which the
	// steady-state and recovery metrics require).
	TraceEvery int
	// Engine tunes the execution engine (worker pins, shard count);
	// the trajectory is identical for every setting.
	Engine EngineOpts
}

func (o DynamicOpts) validate() error {
	if o.MaxRounds <= 0 {
		return fmt.Errorf("harness: DynamicOpts.MaxRounds must be positive, got %d", o.MaxRounds)
	}
	if o.TraceEvery < 0 {
		return errors.New("harness: negative TraceEvery")
	}
	return o.Workload.Validate()
}

// plan returns the in-horizon churn events sorted by round.
func (o DynamicOpts) plan() []dynamics.ChurnEvent {
	var plan []dynamics.ChurnEvent
	for _, ev := range o.Churn {
		if ev.Round >= 1 && ev.Round <= o.MaxRounds {
			plan = append(plan, ev)
		}
	}
	sort.SliceStable(plan, func(a, b int) bool { return plan[a].Round < plan[b].Round })
	return plan
}

// DynamicMetrics are the steady-state observables of a dynamic run,
// computed from the per-round trace (TraceEvery must be 1; they are
// zero otherwise).
type DynamicMetrics struct {
	// TimeAvgPsi0 is the time average of Ψ₀ over every traced round
	// (round 0 included).
	TimeAvgPsi0 float64 `json:"timeAvgPsi0"`
	// MaxPsi0 and FinalPsi0 bound and close the trajectory.
	MaxPsi0   float64 `json:"maxPsi0"`
	FinalPsi0 float64 `json:"finalPsi0"`
	// Bursts counts the burst arrivals inside the horizon;
	// BurstsRecovered of them returned to their pre-burst Ψ₀ within the
	// horizon, after RecoveryMeanRounds rounds on average.
	Bursts             int     `json:"bursts"`
	BurstsRecovered    int     `json:"burstsRecovered"`
	RecoveryMeanRounds float64 `json:"recoveryMeanRounds"`
}

// DynamicResult summarizes a dynamic run. Every field is bit-identical
// across engines for the same opts.
type DynamicResult struct {
	// Rounds is the executed horizon; Epochs the number of engine
	// segments (churn events + 1 when all events are interior).
	Rounds int
	Epochs int
	// Moves is the total number of protocol migrations (churn rehoming
	// is not a protocol move and is excluded).
	Moves int64
	// Ledger records the workload events applied, for conservation
	// checks: final total = initial + Arrived − Departed.
	Ledger core.EventLedger
	// Trace is the merged per-round trace with global round numbers.
	Trace []core.TracePoint
	// FinalN is the network size after churn; FinalCounts (uniform) or
	// FinalState (weighted) hold the closing distribution.
	FinalN      int
	FinalCounts []int64
	FinalState  *core.WeightedState
	Metrics     DynamicMetrics
}

// runDynamicLoop is the epoch loop shared by both task models: it
// segments the horizon at churn rounds, runs each segment through
// runSegment (which executes the engine and advances the carried
// state), merges traces/ledgers, and applies churn events between
// segments via applyChurn — numbering same-round events by plan
// position so each draws an independent churn stream. Protocol
// randomness for epoch e comes from rng.New(opts.Seed).Split(e).
func runDynamicLoop(opts DynamicOpts, traceEvery int, res *DynamicResult,
	runSegment func(segLen int, epochSeed uint64, offset int) (core.RunResult, error),
	applyChurn func(ev dynamics.ChurnEvent) error) error {
	plan := opts.plan()
	seedBase := rng.New(opts.Seed)
	completed, epoch, next := 0, 0, 0
	for completed < opts.MaxRounds {
		bound := opts.MaxRounds + 1
		if next < len(plan) {
			bound = plan[next].Round
		}
		if segLen := bound - 1 - completed; segLen > 0 {
			movesBefore := res.Moves
			run, err := runSegment(segLen, seedBase.Split(uint64(epoch)).Uint64(), completed)
			if err != nil {
				return fmt.Errorf("harness: dynamic epoch %d: %w", epoch, err)
			}
			res.Moves += run.Moves
			res.Ledger.Add(run.Ledger)
			mergeTrace(&res.Trace, run.Trace, completed, movesBefore)
			completed += run.Rounds
			res.Epochs++
		}
		for seq := 0; next < len(plan) && plan[next].Round == bound; seq++ {
			ev := plan[next]
			ev.Seq = seq
			if err := applyChurn(ev); err != nil {
				return err
			}
			next++
		}
		epoch++
	}
	res.Rounds = completed
	res.Metrics = summarize(res.Trace, res.Rounds, opts.Workload, traceEvery)
	return nil
}

// RunUniformDynamic executes a uniform-model dynamic run on the named
// engine ("" means seq): protocol rounds interleaved with workload
// events through core.Drive's Events hook, segmented at churn events,
// with the topology rewired and the engine rebuilt between segments.
// All churn randomness is keyed by (Workload.Seed, event round, seq)
// and all protocol randomness by (Seed, epoch), so seq, shard and
// cluster produce bit-identical trajectories, traces and ledgers.
func RunUniformDynamic(engine string, sys *core.System, proto core.UniformNodeProtocol, counts []int64, opts DynamicOpts) (DynamicResult, error) {
	if err := opts.validate(); err != nil {
		return DynamicResult{}, err
	}
	traceEvery := opts.TraceEvery
	if traceEvery == 0 {
		traceEvery = 1
	}
	cur := append([]int64(nil), counts...)
	cursys := sys
	var res DynamicResult
	err := runDynamicLoop(opts, traceEvery, &res,
		func(segLen int, epochSeed uint64, offset int) (core.RunResult, error) {
			w, sysNow, off := opts.Workload, cursys, uint64(offset)
			run, c, err := RunUniformEngineOpts(engine, cursys, proto, cur, nil, core.RunOpts{
				MaxRounds:  segLen,
				Seed:       epochSeed,
				TraceEvery: traceEvery,
				Events:     func(r uint64) *core.EventBatch { return w.UniformEvents(sysNow, off+r) },
			}, opts.Engine)
			if err == nil {
				cur = c
			}
			return run, err
		},
		func(ev dynamics.ChurnEvent) error {
			nsys, ncounts, err := dynamics.ApplyChurnUniform(cursys, cur, ev, opts.Workload.Seed)
			if err == nil {
				cursys, cur = nsys, ncounts
			}
			return err
		})
	if err != nil {
		return res, err
	}
	res.FinalN = cursys.N()
	res.FinalCounts = cur
	return res, nil
}

// RunWeightedDynamic is the weighted-model analogue of
// RunUniformDynamic (engines: seq, shard and cluster, the latter two
// for core.WeightedFlatProtocol protocols).
func RunWeightedDynamic(engine string, sys *core.System, proto core.WeightedProtocol, perNode []task.Weights, opts DynamicOpts) (DynamicResult, error) {
	if err := opts.validate(); err != nil {
		return DynamicResult{}, err
	}
	traceEvery := opts.TraceEvery
	if traceEvery == 0 {
		traceEvery = 1
	}
	cursys := sys
	st, err := core.NewWeightedState(sys, perNode)
	if err != nil {
		return DynamicResult{}, err
	}
	var res DynamicResult
	err = runDynamicLoop(opts, traceEvery, &res,
		func(segLen int, epochSeed uint64, offset int) (core.RunResult, error) {
			w, sysNow, off := opts.Workload, cursys, uint64(offset)
			per := make([]task.Weights, cursys.N())
			for i := range per {
				per[i] = st.TaskWeights(i)
			}
			run, got, err := RunWeightedEngineOpts(engine, cursys, proto, per, nil, core.RunOpts{
				MaxRounds:  segLen,
				Seed:       epochSeed,
				TraceEvery: traceEvery,
				Events:     func(r uint64) *core.EventBatch { return w.WeightedEvents(sysNow, off+r) },
			}, opts.Engine)
			if err == nil {
				st = got
			}
			return run, err
		},
		func(ev dynamics.ChurnEvent) error {
			nsys, nst, err := dynamics.ApplyChurnWeighted(cursys, st, ev, opts.Workload.Seed)
			if err == nil {
				cursys, st = nsys, nst
			}
			return err
		})
	if err != nil {
		return res, err
	}
	res.FinalN = cursys.N()
	res.FinalState = st
	return res, nil
}

// mergeTrace appends an epoch's trace with rounds shifted into the
// global numbering and moves re-based to the global cumulative count.
// The epoch's round-0 point duplicates the previous epoch's final round
// (same global round, pre- vs post-churn state) and is skipped.
func mergeTrace(dst *[]core.TracePoint, src []core.TracePoint, offset int, movesBefore int64) {
	for _, p := range src {
		p.Round += offset
		p.Moves += movesBefore
		if len(*dst) > 0 && p.Round <= (*dst)[len(*dst)-1].Round {
			continue
		}
		*dst = append(*dst, p)
	}
}

// summarize computes the steady-state metrics from a merged per-round
// trace. With TraceEvery ≠ 1 the trace is too sparse for burst
// bookkeeping, so only the zero value is returned.
func summarize(trace []core.TracePoint, rounds int, w dynamics.Workload, traceEvery int) DynamicMetrics {
	var m DynamicMetrics
	if traceEvery != 1 || len(trace) == 0 {
		return m
	}
	sum := 0.0
	for _, p := range trace {
		sum += p.Psi0
		if p.Psi0 > m.MaxPsi0 {
			m.MaxPsi0 = p.Psi0
		}
	}
	m.TimeAvgPsi0 = sum / float64(len(trace))
	m.FinalPsi0 = trace[len(trace)-1].Psi0
	if w.BurstEvery <= 0 || w.BurstSize <= 0 {
		return m
	}
	// trace[j] is the round-j observation (contiguous per-round points).
	at := func(j int) (core.TracePoint, bool) {
		if j >= 0 && j < len(trace) && trace[j].Round == j {
			return trace[j], true
		}
		return core.TracePoint{}, false
	}
	totalRecovery := 0
	for r := w.BurstEvery; r <= rounds; r += w.BurstEvery {
		base, ok := at(r - 1)
		if !ok {
			continue
		}
		m.Bursts++
		for j := r; j < len(trace); j++ {
			p, ok := at(j)
			if !ok {
				break
			}
			if p.Psi0 <= base.Psi0 {
				m.BurstsRecovered++
				totalRecovery += j - r
				break
			}
		}
	}
	if m.BurstsRecovered > 0 {
		m.RecoveryMeanRounds = float64(totalRecovery) / float64(m.BurstsRecovered)
	}
	return m
}
