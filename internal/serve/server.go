package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard"
)

// Config tunes a Server. The zero value of every field has a sensible
// default; N and (for weighted engines) Weighted must match the engine.
type Config struct {
	// N is the node count of the engine's system (required).
	N int
	// Weighted selects the weighted task model; it gates which Op kinds
	// the batcher accepts and how journaled batches are rebuilt.
	Weighted bool
	// BatchSize flushes the pending group when it reaches this many
	// submissions (default 4096).
	BatchSize int
	// MaxWait flushes a non-empty pending group this long after its
	// first submission even if BatchSize was not reached (default 2ms).
	MaxWait time.Duration
	// IdleRounds keeps the engine stepping this many event-less rounds
	// after traffic pauses, letting the protocol finish rebalancing the
	// last admitted batch before the loop parks (default 0: step only
	// when submissions arrive).
	IdleRounds int
	// Seed keys the whole trajectory, exactly like core.RunOpts.Seed.
	Seed uint64
	// TraceEvery samples a TracePoint every k rounds (0 disables; round
	// 0 and the final round are always included when enabled). Sampling
	// materializes engine state — keep 0 for 10⁶-node daemons.
	TraceEvery int
	// DisableJournal skips recording admitted batches (saves memory on
	// unbounded runs; replay becomes impossible).
	DisableJournal bool
	// Sink, when non-nil, streams admitted batches to its rotating
	// segment files instead of accumulating them in memory: Journal()
	// returns nil and the owner finalizes the chain with Sink.Close
	// after Stop. This is the unbounded-daemon journaling mode.
	Sink *JournalSink
	// Meta is copied into the journal header for the daemon owner's
	// replay bookkeeping (graph family, placement, engine name, ...).
	Meta map[string]string
	// Spans, when non-nil, records per-round phase spans
	// (apply/step/snapshot/decide/commit) for a Chrome-trace dump.
	// Purely wall-clock telemetry; it cannot affect the trajectory.
	Spans *obs.SpanRecorder
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 4096
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	return c
}

// Server owns a live engine and the single round loop that drives it:
// submissions accumulate in the Batcher, each wake applies the taken
// group as one pre-round EventBatch (journaled), steps the engine, and
// completes the group's tickets with the admission round. The loop
// mirrors core.Drive exactly — same base stream, same apply-then-step
// order, same ledger and trace bookkeeping — which is what makes the
// journal replayable to a bit-identical RunResult.
type Server[S core.State] struct {
	eng core.Engine[S]
	dyn core.DynamicEngine
	cfg Config
	b   *Batcher
	m   *Metrics

	journal *Journal
	base    *rng.Stream

	pt         shard.PhaseTimer
	lastPhases shard.PhaseTimes

	ctrl       chan func()
	stopc      chan struct{}
	stopOnce   sync.Once
	loopExited chan struct{}

	// loop-owned; published via loopExited happens-before.
	res        core.RunResult
	lastTraced int
	err        error
}

// New builds a server around eng and starts its round loop. The engine
// must implement core.DynamicEngine (every engine in this repo does)
// and must not be stepped by anyone else while the server runs; close
// it only after Stop returns.
func New[S core.State](eng core.Engine[S], cfg Config) (*Server[S], error) {
	if eng == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	dyn, ok := any(eng).(core.DynamicEngine)
	if !ok {
		return nil, fmt.Errorf("serve: engine %T does not support workload events", eng)
	}
	cfg = cfg.withDefaults()
	m := NewMetrics()
	b, err := NewBatcher(cfg.N, cfg.Weighted, cfg.BatchSize, cfg.MaxWait, m)
	if err != nil {
		return nil, err
	}
	s := &Server[S]{
		eng:        eng,
		dyn:        dyn,
		cfg:        cfg,
		b:          b,
		m:          m,
		base:       rng.New(cfg.Seed),
		ctrl:       make(chan func()),
		stopc:      make(chan struct{}),
		loopExited: make(chan struct{}),
		lastTraced: -1,
	}
	if !cfg.DisableJournal && cfg.Sink == nil {
		s.journal = &Journal{
			Version:    journalVersion,
			N:          cfg.N,
			Weighted:   cfg.Weighted,
			Seed:       cfg.Seed,
			TraceEvery: cfg.TraceEvery,
			Meta:       cfg.Meta,
		}
	}
	if pt, ok := any(eng).(shard.PhaseTimer); ok {
		s.pt = pt
	}
	go s.loop()
	return s, nil
}

// Submit appends one operation to the pending batch; the ticket reports
// the admission round. Safe for concurrent use at submission rates far
// above the round rate — that amortization is the point.
func (s *Server[S]) Submit(op Op) (Ticket, error) { return s.b.Submit(op) }

// Stats snapshots the flat metrics.
func (s *Server[S]) Stats() Stats { return s.m.Snapshot() }

// Metrics exposes the live counter set (shared with the batcher).
func (s *Server[S]) Metrics() *Metrics { return s.m }

// Registry exposes the obs registry behind the metrics, so owners can
// register engine-level series next to the serve set and render
// everything on one /metrics page.
func (s *Server[S]) Registry() *obs.Registry { return s.m.Registry() }

// Do runs f on the round-loop goroutine between rounds, giving f a
// quiescent engine (nothing steps or applies while it runs). After the
// loop has exited the engine is permanently quiescent and f runs
// inline. Used by /load and /stats probes that read engine state.
func (s *Server[S]) Do(f func()) {
	done := make(chan struct{})
	w := func() { f(); close(done) }
	select {
	case s.ctrl <- w:
		<-done
	case <-s.loopExited:
		f()
	}
}

// Stop closes submission intake, drains every in-flight group through a
// final round, records the final trace point, and returns the live
// RunResult (Converged=true, matching a nil-stop core.Drive run of the
// same length). Idempotent; every call returns the same result.
func (s *Server[S]) Stop() (core.RunResult, error) {
	s.stopOnce.Do(func() { close(s.stopc) })
	<-s.loopExited
	return s.res, s.err
}

// Journal returns the admitted-batch ledger. Complete (rounds + result
// footer) only after Stop; nil when journaling is disabled or routed
// through a streaming Sink (read the segment chain back with
// ReadJournalSegments in that case).
func (s *Server[S]) Journal() *Journal { return s.journal }

// record mirrors core.Drive's trace sampling byte for byte.
func (s *Server[S]) record(round int) error {
	if s.cfg.TraceEvery <= 0 || round == s.lastTraced {
		return nil
	}
	st, err := s.eng.State()
	if err != nil {
		return err
	}
	s.res.Trace = append(s.res.Trace, core.TracePoint{
		Round:  round,
		Psi0:   st.Psi0(),
		Psi1:   st.Psi1(),
		LDelta: st.LDelta(),
		Moves:  s.res.Moves,
	})
	s.lastTraced = round
	return nil
}

// samplePhases folds the engine's cumulative phase times into the
// metrics as per-round deltas, and (when span recording is on) lays
// the three phases out as sub-spans of the step that started at
// stepStart — the phases run in exactly that order inside Step.
func (s *Server[S]) samplePhases(stepStart time.Time) {
	if s.pt == nil {
		return
	}
	cur := s.pt.Phases()
	dS := cur.Snapshot - s.lastPhases.Snapshot
	dD := cur.Decide - s.lastPhases.Decide
	dC := cur.Commit - s.lastPhases.Commit
	s.m.snapshotNs.Add(uint64(dS))
	s.m.decideNs.Add(uint64(dD))
	s.m.commitNs.Add(uint64(dC))
	if sp := s.cfg.Spans; sp != nil {
		t := stepStart
		sp.Span(0, 1, "snapshot", t, dS)
		t = t.Add(dS)
		sp.Span(0, 1, "decide", t, dD)
		t = t.Add(dD)
		sp.Span(0, 1, "commit", t, dC)
	}
	s.lastPhases = cur
}

// runRound executes one protocol round, applying g's batch first when
// g is non-nil (exactly core.Drive's apply-then-step order).
func (s *Server[S]) runRound(g *group) error {
	round := s.res.Rounds + 1
	if g != nil {
		s.m.recordBatch(g.subs, time.Since(g.first))
		t0 := time.Now()
		led, err := s.dyn.ApplyEvents(g.batch)
		d := time.Since(t0)
		s.m.applyNs.Add(uint64(d))
		s.cfg.Spans.Span(0, 0, "apply", t0, d)
		if err != nil {
			return err
		}
		led.Batches = 1
		s.res.Ledger.Add(led)
		if s.journal != nil {
			s.journal.appendEntry(round, g.batch)
		}
	} else {
		s.m.idleRounds.Add(1)
	}
	t0 := time.Now()
	moves, err := s.eng.Step(uint64(round), s.base)
	d := time.Since(t0)
	s.m.stepNs.Add(uint64(d))
	s.cfg.Spans.Span(0, 0, "step", t0, d)
	if err != nil {
		return err
	}
	s.samplePhases(t0)
	s.res.Moves += moves
	s.res.Rounds = round
	s.m.rounds.Set(uint64(round))
	s.m.moves.Set(uint64(s.res.Moves))
	if s.journal != nil {
		s.journal.Rounds = round
	}
	// The sink sees the entry after the round completes, so the partial
	// result it may anchor a rotation on reflects that round.
	if s.cfg.Sink != nil && g != nil {
		if err := s.cfg.Sink.Append(entryFromBatch(round, g.batch), s.res); err != nil {
			return err
		}
	}
	if s.cfg.TraceEvery > 0 && round%s.cfg.TraceEvery == 0 {
		if err := s.record(round); err != nil {
			return err
		}
	}
	return nil
}

// finish completes g (if any), publishes err, and finalizes the result
// exactly as core.Drive does on its nil-stop exit path.
func (s *Server[S]) finish(g *group, err error) {
	s.b.CloseSubmit()
	if err == nil {
		err = s.record(s.res.Rounds)
	}
	if err == nil {
		s.res.Converged = true
	}
	s.err = err
	if g != nil {
		g.complete(uint64(s.res.Rounds), err)
	}
	// A group submitted between the failing round and CloseSubmit (or
	// racing the stop signal) must still be completed — with the error,
	// or by one last round on the clean path.
	if tail := s.b.Take(); tail != nil && tail.subs > 0 {
		if err == nil {
			if rerr := s.runRound(tail); rerr != nil {
				s.err = rerr
				s.res.Converged = false
				err = rerr
			} else if s.cfg.TraceEvery > 0 {
				if rerr := s.record(s.res.Rounds); rerr != nil {
					s.err = rerr
					s.res.Converged = false
					err = rerr
				}
			}
		}
		tail.complete(uint64(s.res.Rounds), err)
	}
	if s.journal != nil {
		res := s.res
		s.journal.Result = &res
	}
	close(s.loopExited)
}

// loop is the single consumer: it owns the engine, the journal, and the
// RunResult. One iteration = at most one round.
func (s *Server[S]) loop() {
	if err := s.record(0); err != nil {
		s.finish(nil, err)
		return
	}
	idleLeft := 0
	for {
		var g *group
		// Fast path: pending work or control traffic without parking.
		select {
		case <-s.stopc:
			s.drainAndExit()
			return
		case f := <-s.ctrl:
			f()
			continue
		case <-s.b.Ready():
			g = s.b.Take()
		default:
			if idleLeft > 0 {
				idleLeft--
				if err := s.runRound(nil); err != nil {
					s.finish(nil, err)
					return
				}
				continue
			}
			// Park until something happens.
			select {
			case <-s.stopc:
				s.drainAndExit()
				return
			case f := <-s.ctrl:
				f()
				continue
			case <-s.b.Ready():
				g = s.b.Take()
			}
		}
		if g == nil || g.subs == 0 {
			continue // spurious wake
		}
		err := s.runRound(g)
		if err != nil {
			s.finish(g, err)
			return
		}
		g.complete(uint64(s.res.Rounds), nil)
		s.b.Recycle(g.batch)
		idleLeft = s.cfg.IdleRounds
	}
}

// drainAndExit is the clean shutdown path: close intake, flush the
// pending group through one last round (no dropped in-flight
// submissions), finalize trace/journal.
func (s *Server[S]) drainAndExit() {
	s.b.CloseSubmit()
	if g := s.b.Take(); g != nil && g.subs > 0 {
		if err := s.runRound(g); err != nil {
			s.finish(g, err)
			return
		}
		g.complete(uint64(s.res.Rounds), nil)
		s.b.Recycle(g.batch)
	}
	s.finish(nil, nil)
}
