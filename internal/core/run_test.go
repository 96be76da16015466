package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

// cursorStart is an adversarial start on an 8-node ring: every task on
// node 0, so every round moves tasks and every trace point differs.
func cursorStart(t *testing.T) *UniformState {
	t.Helper()
	counts, err := workload.AllOnOne(8, 800, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewUniformState(testSystem(t, 8), counts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// cursorEvents is a pure function of the round: arrivals and departures
// on most rounds, none on every third.
func cursorEvents(n int) func(uint64) *EventBatch {
	return func(r uint64) *EventBatch {
		if r%3 == 0 {
			return nil
		}
		var b EventBatch
		b.AddArrival(n, int(r)%n, int64(r%4)+1)
		b.AddDeparture(n, int(r*5)%n, 2)
		return &b
	}
}

// seqAlg1 is the sequential Algorithm 1 engine over st.
func seqAlg1(st *UniformState) seqEngine[*UniformState] {
	return seqEngine[*UniformState]{st: st, step: Algorithm1{}.Step}
}

// fusedUniform is the sequential engine behind the EventStepper
// interface, so the cursor's fused path runs on a state tests can clone.
type fusedUniform struct{ seqEngine[*UniformState] }

func (e fusedUniform) StepEvents(r uint64, base *rng.Stream, batch *EventBatch) (int64, EventLedger, error) {
	led, err := e.ApplyEvents(batch)
	if err != nil {
		return 0, led, err
	}
	moves, err := e.Step(r, base)
	return moves, led, err
}

// failAt fails round `round` and steps every other round normally.
type failAt struct {
	Engine[*UniformState]
	round uint64
	err   error
}

func (e failAt) Step(r uint64, base *rng.Stream) (int64, error) {
	if r == e.round {
		return 0, e.err
	}
	return e.Engine.Step(r, base)
}

// runOut steps r until it is done and finishes it: Drive's loop on a
// cursor the test built itself.
func runOut(r *Run[*UniformState]) (RunResult, error) {
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

// checkResumeEverywhere runs a cursor over a clone of start and, before
// each round and after the last, restores its Progress into a fresh
// cursor over a clone of the live state; every resumed run, and the
// live one, must finish with Drive's RunResult exactly.
func checkResumeEverywhere(t *testing.T, name string, start *UniformState, engine func(*UniformState) Engine[*UniformState], opts RunOpts) {
	t.Helper()
	want, err := Drive(engine(start.Clone()), nil, opts)
	if err != nil {
		t.Fatalf("%s: Drive: %v", name, err)
	}
	live := start.Clone()
	r, err := NewRun(engine(live), nil, opts, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for {
		p := r.Progress()
		resumed, err := NewRun(engine(live.Clone()), nil, opts, &p)
		if err != nil {
			t.Fatalf("%s: restore at round %d: %v", name, r.Round(), err)
		}
		got, err := runOut(resumed)
		if err != nil {
			t.Fatalf("%s: resumed at round %d: %v", name, r.Round(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: resumed at round %d:\n got %+v\nwant %+v", name, r.Round(), got, want)
		}
		if r.Round() == opts.MaxRounds {
			break
		}
		if err := r.Step(); err != nil {
			t.Fatalf("%s: round %d: %v", name, r.Round()+1, err)
		}
	}
	if got, err := r.Finish(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: live cursor finished with %+v, %v; want %+v", name, got, err, want)
	}
}

// TestRunResumeMatchesDrive: a run restored from its Progress after any
// round finishes with Drive's result, for trace cadences that do and do
// not divide the horizon (23 rounds).
func TestRunResumeMatchesDrive(t *testing.T) {
	start := cursorStart(t)
	seq := func(st *UniformState) Engine[*UniformState] { return seqAlg1(st) }
	for _, every := range []int{0, 1, 3, 7} {
		checkResumeEverywhere(t, "static", start, seq, RunOpts{MaxRounds: 23, Seed: 4, TraceEvery: every})
	}
}

// TestRunResumeWithEvents is TestRunResumeMatchesDrive with workload
// events, on the split (ApplyEvents, Step) and the fused (StepEvents)
// path: the ledger must resume as exactly as the trace.
func TestRunResumeWithEvents(t *testing.T) {
	start := cursorStart(t)
	engines := map[string]func(*UniformState) Engine[*UniformState]{
		"split": func(st *UniformState) Engine[*UniformState] { return seqAlg1(st) },
		"fused": func(st *UniformState) Engine[*UniformState] { return fusedUniform{seqAlg1(st)} },
	}
	var ledgers []EventLedger
	for name, engine := range engines {
		for _, every := range []int{0, 1, 3, 7} {
			opts := RunOpts{MaxRounds: 23, Seed: 6, TraceEvery: every, Events: cursorEvents(8)}
			checkResumeEverywhere(t, name, start, engine, opts)
		}
		res, err := Drive(engine(start.Clone()), nil, RunOpts{MaxRounds: 23, Seed: 6, Events: cursorEvents(8)})
		if err != nil {
			t.Fatal(err)
		}
		ledgers = append(ledgers, res.Ledger)
	}
	if ledgers[0].Batches != 16 || ledgers[0] != ledgers[1] {
		t.Fatalf("ledgers %+v, want 16 batches on both paths", ledgers)
	}
}

// TestRunStepFailureKeepsPartialResult: a failing Step leaves the result
// at the last completed round — no final trace point, not converged —
// and Drive returns exactly that partial result with the error.
func TestRunStepFailureKeepsPartialResult(t *testing.T) {
	start := cursorStart(t)
	boom := errors.New("boom")
	opts := RunOpts{MaxRounds: 20, Seed: 8, TraceEvery: 3}
	engine := func(st *UniformState) Engine[*UniformState] {
		return failAt{Engine: seqAlg1(st), round: 8, err: boom}
	}
	r, err := NewRun(engine(start.Clone()), nil, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r.Round() < 7 {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	partial := r.Result()
	if err := r.Step(); !errors.Is(err, boom) {
		t.Fatalf("round 8: %v, want boom", err)
	}
	if got := r.Result(); !reflect.DeepEqual(got, partial) {
		t.Fatalf("failed Step changed the result:\n got %+v\nwant %+v", got, partial)
	}
	res, err := Drive(engine(start.Clone()), nil, opts)
	if !errors.Is(err, boom) {
		t.Fatalf("Drive: %v, want boom", err)
	}
	if !reflect.DeepEqual(res, partial) {
		t.Fatalf("Drive's partial result:\n got %+v\nwant %+v", res, partial)
	}
	if partial.Rounds != 7 || partial.Converged || partial.Trace[len(partial.Trace)-1].Round != 6 {
		t.Fatalf("partial result %+v, want 7 rounds, unconverged, last trace point at 6", partial)
	}
}

// TestRunRestoreRejectsBadProgress: every way a saved progress can
// contradict itself or its options fails the restore with
// ErrBadProgress, before the engine is touched.
func TestRunRestoreRejectsBadProgress(t *testing.T) {
	opts := RunOpts{MaxRounds: 50, Seed: 1, TraceEvery: 10}
	valid := func() Progress {
		return Progress{
			Result:     RunResult{Rounds: 25, Moves: 9, Trace: []TracePoint{{Round: 0}, {Round: 10, Moves: 4}, {Round: 20, Moves: 8}}},
			LastTraced: 20,
		}
	}
	e := seqAlg1(cursorStart(t))
	p := valid()
	if _, err := NewRun[*UniformState](e, nil, opts, &p); err != nil {
		t.Fatalf("valid progress rejected: %v", err)
	}
	cases := map[string]func(*Progress, *RunOpts){
		"negative round":         func(p *Progress, _ *RunOpts) { p.Result.Rounds = -4 },
		"round past horizon":     func(p *Progress, _ *RunOpts) { p.Result.Rounds = 51 },
		"zero horizon":           func(_ *Progress, o *RunOpts) { o.MaxRounds = 0 },
		"negative trace":         func(_ *Progress, o *RunOpts) { o.TraceEvery = -1 },
		"trace with tracing off": func(_ *Progress, o *RunOpts) { o.TraceEvery = 0 },
		"last traced too low":    func(p *Progress, _ *RunOpts) { p.LastTraced = -2 },
		"last traced past round": func(p *Progress, _ *RunOpts) { p.LastTraced = 26 },
		"last traced not last":   func(p *Progress, _ *RunOpts) { p.LastTraced = 10 },
		"trace not ascending":    func(p *Progress, _ *RunOpts) { p.Result.Trace[1].Round = 20 },
		"trace past round":       func(p *Progress, _ *RunOpts) { p.Result.Trace[2].Round = 30; p.LastTraced = 30 },
		"negative trace round":   func(p *Progress, _ *RunOpts) { p.Result.Trace[0].Round = -1 },
	}
	for name, mutate := range cases {
		p, o := valid(), opts
		mutate(&p, &o)
		if _, err := NewRun[*UniformState](e, nil, o, &p); !errors.Is(err, ErrBadProgress) {
			t.Errorf("%s: restore returned %v, want ErrBadProgress", name, err)
		}
	}
}
