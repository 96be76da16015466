package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/rng"
)

// ErrMaxRounds is wrapped into run results that stop without converging.
var ErrMaxRounds = errors.New("core: maximum rounds reached without convergence")

// TracePoint is one sampled observation of a running simulation.
type TracePoint struct {
	Round  int     `json:"round"`
	Psi0   float64 `json:"psi0"`
	Psi1   float64 `json:"psi1,omitempty"`
	LDelta float64 `json:"lDelta"`
	Moves  int64   `json:"movesCumulative"`
}

// RunResult summarizes a simulation run.
type RunResult struct {
	// Rounds is the number of protocol rounds executed.
	Rounds int
	// Converged reports whether the stop condition was met (as opposed to
	// hitting MaxRounds).
	Converged bool
	// Moves is the total number of task migrations.
	Moves int64
	// Trace holds sampled potentials if tracing was enabled.
	Trace []TracePoint
	// Ledger accumulates the workload events applied through
	// RunOpts.Events (zero for static runs).
	Ledger EventLedger
}

// RunOpts configures a simulation run.
type RunOpts struct {
	// MaxRounds bounds the run (required, > 0).
	MaxRounds int
	// Seed determines the full trajectory.
	Seed uint64
	// TraceEvery samples a TracePoint every k rounds (0 disables tracing;
	// round 0 and the final round are always included when enabled).
	TraceEvery int
	// CheckEvery evaluates the stop condition every k rounds (default 1).
	CheckEvery int
	// Events, when non-nil, supplies the workload mutation applied
	// immediately before each round r (a nil batch means no events that
	// round). The engine must implement DynamicEngine. Events must be a
	// pure function of r — it is how the dynamics layer keys its event
	// streams — so that every engine replays the identical workload.
	Events func(round uint64) *EventBatch
}

func (o RunOpts) validate() error {
	if o.MaxRounds <= 0 {
		return fmt.Errorf("core: RunOpts.MaxRounds must be positive, got %d", o.MaxRounds)
	}
	if o.TraceEvery < 0 || o.CheckEvery < 0 {
		return fmt.Errorf("core: negative sampling interval")
	}
	return nil
}

// State is the observable surface a simulation state exposes to the
// shared driver: the potentials sampled into TracePoints. Both
// *UniformState and *WeightedState implement it, which is what lets one
// generic driver serve both task models.
type State interface {
	Psi0() float64
	Psi1() float64
	LDelta() float64
}

// Engine is a simulation that the shared driver advances round by round.
// Step executes synchronous round r, drawing all randomness from streams
// derived from base (the keying contract rng.Stream.At pins down), and
// returns the number of migrated tasks. State exposes the current
// distribution for stop conditions and trace sampling; the returned
// value is a read-only view that is valid until the next Step.
//
// The sequential protocols implement Engine through the adapters behind
// RunUniform/RunWeighted; the shard engines and clusters in package
// shard implement it directly. Because every engine draws node i's round-r randomness from
// base.At(r, i), driving any of them through Drive with the same seed
// yields bit-identical trajectories — and therefore identical
// RunResults and traces.
type Engine[S State] interface {
	Step(round uint64, base *rng.Stream) (int64, error)
	State() (S, error)
}

// ErrBadProgress is wrapped into the error of restoring a Run from a
// Progress that contradicts itself or its RunOpts: no run produced it.
var ErrBadProgress = errors.New("core: inconsistent run progress")

// Progress is the resumable position of a Run: the partial result and
// the round of the last trace point (−1 before any). With the RunOpts
// and the engine state after round Result.Rounds it is all a run needs
// to continue bit-exactly, since round r's randomness derives from the
// seed alone (rng.At keying). Cluster checkpoints (LBCK) serialize it.
type Progress struct {
	Result     RunResult
	LastTraced int
}

// Validate reports, wrapping ErrBadProgress, a progress no run under
// opts can reach: invalid options, a round outside [0, MaxRounds],
// trace points out of order, past the round or with tracing off, or a
// LastTraced other than the last trace point's round.
func (p Progress) Validate(opts RunOpts) error {
	if err := opts.validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadProgress, err)
	}
	round, trace := p.Result.Rounds, p.Result.Trace
	if round < 0 || round > opts.MaxRounds {
		return fmt.Errorf("%w: round %d outside [0, %d]", ErrBadProgress, round, opts.MaxRounds)
	}
	if opts.TraceEvery == 0 && len(trace) != 0 {
		return fmt.Errorf("%w: %d trace points with tracing off", ErrBadProgress, len(trace))
	}
	last := -1
	for k, tp := range trace {
		if tp.Round <= last || tp.Round > round {
			return fmt.Errorf("%w: trace point %d at round %d is not in (%d, %d]", ErrBadProgress, k, tp.Round, last, round)
		}
		last = tp.Round
	}
	if p.LastTraced != last {
		return fmt.Errorf("%w: last traced round %d, but the trace ends at round %d", ErrBadProgress, p.LastTraced, last)
	}
	return nil
}

// Run is the resumable cursor every round loop steps (Drive, the serve
// loop, the checkpointing cluster drive). It alone writes the RunResult:
// moves, rounds, ledger and trace (round 0, every TraceEvery-th round
// and the final round, each once). Callers decide when to step and stop.
type Run[S State] struct {
	e          Engine[S]
	dyn        DynamicEngine
	es         EventStepper
	stop       func(S) bool
	opts       RunOpts
	base       *rng.Stream
	res        RunResult
	lastTraced int
}

// NewRun validates opts and starts a run of e under stop (nil: run all
// MaxRounds). A nil from starts fresh and records round 0; otherwise
// the run continues from the progress, which must pass Validate, and e
// must hold the state after round from.Result.Rounds.
func NewRun[S State](e Engine[S], stop func(S) bool, opts RunOpts, from *Progress) (*Run[S], error) {
	err := opts.validate()
	if from != nil {
		err = from.Validate(opts)
	}
	if err != nil {
		return nil, err
	}
	if e == nil {
		return nil, errors.New("core: nil engine")
	}
	r := &Run[S]{e: e, stop: stop, opts: opts, base: rng.New(opts.Seed), lastTraced: -1}
	r.dyn, _ = any(e).(DynamicEngine)
	r.es, _ = any(e).(EventStepper)
	if opts.Events != nil && r.dyn == nil {
		return nil, fmt.Errorf("core: engine %T does not support workload events", e)
	}
	if from == nil {
		if err := r.record(0); err != nil {
			return nil, err
		}
		return r, nil
	}
	// A private trace keeps two runs resumed from one progress from
	// appending into each other's spare capacity.
	r.res, r.lastTraced = from.Result, from.LastTraced
	r.res.Trace = slices.Clone(from.Result.Trace)
	return r, nil
}

// Round reports the last completed round.
func (r *Run[S]) Round() int { return r.res.Rounds }

// Result returns the result so far: after a failed call, the partial
// result up to the last completed round.
func (r *Run[S]) Result() RunResult { return r.res }

// Progress returns the position NewRun resumes from.
func (r *Run[S]) Progress() Progress { return Progress{Result: r.res, LastTraced: r.lastTraced} }

// Apply applies batch as workload arriving before the next round and
// adds it to the ledger as one batch.
func (r *Run[S]) Apply(batch *EventBatch) error {
	if r.dyn == nil {
		return fmt.Errorf("core: engine %T does not support workload events", r.e)
	}
	led, err := r.dyn.ApplyEvents(batch)
	if err != nil {
		return err
	}
	led.Batches = 1
	r.res.Ledger.Add(led)
	return nil
}

// Step executes the next round, after applying its RunOpts.Events
// batch when one is due, and samples the trace on TraceEvery rounds.
func (r *Run[S]) Step() error {
	round := r.res.Rounds + 1
	var batch *EventBatch
	if r.opts.Events != nil {
		batch = r.opts.Events(uint64(round))
	}
	var moves int64
	var err error
	if batch != nil && r.es != nil {
		// Fused path: the cluster piggybacks the batch on the round frame,
		// saving a barrier round-trip. Bit-identical to Apply then Step.
		var led EventLedger
		if moves, led, err = r.es.StepEvents(uint64(round), r.base, batch); err != nil {
			return err
		}
		led.Batches = 1
		r.res.Ledger.Add(led)
	} else {
		if batch != nil {
			if err := r.Apply(batch); err != nil {
				return err
			}
		}
		if moves, err = r.e.Step(uint64(round), r.base); err != nil {
			return err
		}
	}
	r.res.Moves += moves
	r.res.Rounds = round
	if r.opts.TraceEvery > 0 && round%r.opts.TraceEvery == 0 {
		return r.record(round)
	}
	return nil
}

// Done reports whether the run is over: the stop condition held on a
// CheckEvery round (the run converged) or all MaxRounds are complete.
func (r *Run[S]) Done() (bool, error) {
	if r.stop != nil && r.res.Rounds%max(r.opts.CheckEvery, 1) == 0 {
		st, err := r.e.State()
		if err != nil {
			return false, err
		}
		if r.stop(st) {
			r.res.Converged = true
			return true, nil
		}
	}
	return r.res.Rounds >= r.opts.MaxRounds, nil
}

// Finish records the final round's trace point and returns the result:
// converged if the stop condition fired or there is none, otherwise
// with an error wrapping ErrMaxRounds.
func (r *Run[S]) Finish() (RunResult, error) {
	if err := r.record(r.res.Rounds); err != nil {
		return r.res, err
	}
	if r.stop == nil {
		r.res.Converged = true
	}
	if !r.res.Converged {
		return r.res, fmt.Errorf("%w after %d rounds", ErrMaxRounds, r.res.Rounds)
	}
	return r.res, nil
}

// record samples a trace point at round, at most once per round.
func (r *Run[S]) record(round int) error {
	if r.opts.TraceEvery <= 0 || round == r.lastTraced {
		return nil
	}
	st, err := r.e.State()
	if err != nil {
		return err
	}
	r.res.Trace = append(r.res.Trace, TracePoint{
		Round:  round,
		Psi0:   st.Psi0(),
		Psi1:   st.Psi1(),
		LDelta: st.LDelta(),
		Moves:  r.res.Moves,
	})
	r.lastTraced = round
	return nil
}

// Drive steps a fresh Run of e until stop returns true (checked every
// CheckEvery rounds) or opts.MaxRounds is exhausted. A nil stop runs all
// MaxRounds and converges; a stop that never fires ends in ErrMaxRounds.
// An engine failure (a Step or State error, e.g. ErrClosed) returns the
// partial result as-is, without the final trace point.
func Drive[S State](e Engine[S], stop func(S) bool, opts RunOpts) (RunResult, error) {
	r, err := NewRun(e, stop, opts, nil)
	if err != nil {
		return RunResult{}, err
	}
	for {
		done, err := r.Done()
		if err != nil {
			return r.Result(), err
		}
		if done {
			return r.Finish()
		}
		if err := r.Step(); err != nil {
			return r.Result(), err
		}
	}
}

// seqEngine adapts a sequential state and its protocol's round to the
// Engine (and DynamicEngine) surface. Step mutates the caller's state in
// place, so after Drive returns the state holds the final distribution.
type seqEngine[S interface {
	State
	ApplyEvents(*EventBatch) (EventLedger, error)
}] struct {
	st   S
	step func(S, uint64, *rng.Stream) int64
}

func (e seqEngine[S]) Step(round uint64, base *rng.Stream) (int64, error) {
	return e.step(e.st, round, base), nil
}

func (e seqEngine[S]) State() (S, error) { return e.st, nil }

// ApplyEvents implements DynamicEngine by mutating the caller's state.
func (e seqEngine[S]) ApplyEvents(batch *EventBatch) (EventLedger, error) {
	return e.st.ApplyEvents(batch)
}

// SeqUniformEngine wraps a sequential (state, protocol) pair as an
// Engine (and DynamicEngine) so callers that drive rounds themselves —
// the serve daemon's live loop, custom harnesses — can use the same
// adapter RunUniform uses internally. Step mutates st in place.
func SeqUniformEngine(st *UniformState, p UniformProtocol) (Engine[*UniformState], error) {
	if st == nil || p == nil {
		return nil, errors.New("core: nil state or protocol")
	}
	return seqEngine[*UniformState]{st: st, step: p.Step}, nil
}

// SeqWeightedEngine wraps a sequential weighted (state, protocol) pair
// as an Engine (and DynamicEngine); the weighted counterpart of
// SeqUniformEngine.
func SeqWeightedEngine(st *WeightedState, p WeightedProtocol) (Engine[*WeightedState], error) {
	if st == nil || p == nil {
		return nil, errors.New("core: nil state or protocol")
	}
	step := func(st *WeightedState, r uint64, base *rng.Stream) int64 { return int64(p.Step(st, r, base)) }
	return seqEngine[*WeightedState]{st: st, step: step}, nil
}

// UniformStop decides whether a uniform-state run may stop.
type UniformStop func(*UniformState) bool

// StopAtNash stops at an exact Nash equilibrium.
func StopAtNash() UniformStop { return IsNash }

// StopAtApproxNash stops at an ε-approximate Nash equilibrium.
func StopAtApproxNash(eps float64) UniformStop {
	return func(st *UniformState) bool { return IsApproxNash(st, eps) }
}

// StopAtPsi0Below stops once Ψ₀(x) ≤ threshold (e.g. 4·ψ_c for the
// Theorem 1.1 phase).
func StopAtPsi0Below(threshold float64) UniformStop {
	return func(st *UniformState) bool { return st.Psi0() <= threshold }
}

// RunUniform executes protocol rounds on the sequential engine until
// stop returns true or opts.MaxRounds is exhausted. A nil stop runs all
// MaxRounds. It is a thin wrapper over Drive.
func RunUniform(st *UniformState, p UniformProtocol, stop UniformStop, opts RunOpts) (RunResult, error) {
	e, err := SeqUniformEngine(st, p)
	if err != nil {
		return RunResult{}, err
	}
	return Drive[*UniformState](e, stop, opts)
}

// WeightedStop decides whether a weighted-state run may stop.
type WeightedStop func(*WeightedState) bool

// StopAtWeightedThreshold stops at the threshold state ℓᵢ−ℓⱼ ≤ 1/sⱼ that
// Algorithm 2 converges to.
func StopAtWeightedThreshold() WeightedStop { return IsWeightedThresholdNE }

// StopAtWeightedNash stops at an exact weighted Nash equilibrium.
func StopAtWeightedNash() WeightedStop { return IsWeightedNash }

// StopAtWeightedApproxNash stops at an ε-approximate NE.
func StopAtWeightedApproxNash(eps float64) WeightedStop {
	return func(st *WeightedState) bool { return IsWeightedApproxNash(st, eps) }
}

// StopAtWeightedPsi0Below stops once Ψ₀ ≤ threshold.
func StopAtWeightedPsi0Below(threshold float64) WeightedStop {
	return func(st *WeightedState) bool { return st.Psi0() <= threshold }
}

// RunWeighted executes weighted protocol rounds on the sequential engine
// until stop returns true or opts.MaxRounds is exhausted. A nil stop
// runs all MaxRounds. It is a thin wrapper over Drive.
func RunWeighted(st *WeightedState, p WeightedProtocol, stop WeightedStop, opts RunOpts) (RunResult, error) {
	e, err := SeqWeightedEngine(st, p)
	if err != nil {
		return RunResult{}, err
	}
	return Drive[*WeightedState](e, stop, opts)
}
