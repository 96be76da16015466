// Package serve turns the simulator into a serving system: a live
// engine owned by a round loop, fed by a Batcher that amortizes
// individual task submissions into one core.EventBatch per protocol
// round (size-or-deadline flush), with per-request completion so
// callers learn the round their event was admitted in. Every admitted
// batch is journaled, so any serve-mode run replays offline through
// core.Drive to a bit-identical Ψ trace.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// ErrClosed is returned by Submit once the batcher no longer accepts
// submissions (server stopping or failed).
var ErrClosed = errors.New("serve: closed to new submissions")

// OpKind selects the event type a submission contributes.
type OpKind uint8

const (
	// OpArrive adds Count unit tasks at Node (uniform model).
	OpArrive OpKind = iota
	// OpArriveWeighted adds one task of weight Weight ∈ (0,1] at Node
	// (weighted model).
	OpArriveWeighted
	// OpComplete requests completion of Count unit tasks at Node,
	// clamped to the tasks present (uniform model).
	OpComplete
	// OpCompleteWeighted requests completion of Count weighted tasks at
	// Node, most-recent-first, clamped (weighted model).
	OpCompleteWeighted
)

// Op is one task submission. The zero Count means 1.
type Op struct {
	Kind   OpKind
	Node   int
	Count  int64
	Weight float64
}

// flushCause records which trigger flushed a group first.
type flushCause uint8

const (
	causeNone flushCause = iota
	causeSize
	causeDeadline
	causeFinal
)

// addOp folds one submission into an n-node batch through the batch's
// Add helpers, which keep its touched-node index: recycling the batch
// (EventBatch.Reset) then clears only the entries a group used, and the
// engine and the journal walk only the touched nodes. The zero Count
// means 1. Journal replay rebuilds batches through the same function.
func addOp(b *core.EventBatch, n int, op Op) {
	k := op.Count
	if k == 0 {
		k = 1
	}
	switch op.Kind {
	case OpArrive:
		b.AddArrival(n, op.Node, k)
	case OpComplete:
		b.AddDeparture(n, op.Node, k)
	case OpArriveWeighted:
		b.AddWeightArrival(n, op.Node, op.Weight)
	case OpCompleteWeighted:
		b.AddWeightDeparture(n, op.Node, k)
	}
}

// group is one flush unit: the submissions accumulated between two
// round boundaries. All of a group's callers share one completion
// channel; round and err are written before done is closed and are
// immutable afterwards, which is what makes Ticket.Wait race-free.
type group struct {
	batch *core.EventBatch
	subs  int
	first time.Time
	cause flushCause
	done  chan struct{}
	round uint64
	err   error
}

// Ticket is a caller's handle on an in-flight submission.
type Ticket struct {
	g        *group
	t0       time.Time
	m        *Metrics
	recorded bool
}

// Done is closed once the submission's batch has been applied (or the
// server failed).
func (t *Ticket) Done() <-chan struct{} { return t.g.done }

// Wait blocks until the submission is admitted and returns the protocol
// round whose pre-round batch carried it. The first Wait on a ticket
// records the admission latency into the server metrics.
func (t *Ticket) Wait() (round uint64, err error) {
	<-t.g.done
	if t.m != nil && !t.recorded {
		t.recorded = true
		t.m.recordAdmit(time.Since(t.t0))
	}
	return t.g.round, t.g.err
}

// closedDone is the shared pre-closed channel behind DoneTicket.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// DoneTicket builds a pre-completed ticket for submit paths that have
// already waited for admission themselves — e.g. an HTTP round trip,
// whose 200 response carries the admission round. t0 should be the
// submission start time so collectors measuring time-to-admission see
// the full round trip.
func DoneTicket(t0 time.Time, round uint64, err error) Ticket {
	return Ticket{g: &group{round: round, err: err, done: closedDone}, t0: t0}
}

// Batcher accumulates submissions into a pending group and wakes the
// round loop when the group reaches BatchSize or has waited MaxWait
// since its first submission — whichever fires first. The round loop is
// the single consumer: take() hands it the whole pending group, so one
// engine round absorbs every submission that arrived while the previous
// round was executing (the amortization that makes 100k/s feasible
// against a 10⁶-node engine stepping a few rounds per second).
type Batcher struct {
	n         int
	weighted  bool
	batchSize int
	maxWait   time.Duration
	m         *Metrics

	mu      sync.Mutex
	pending *group
	free    []*core.EventBatch
	timer   *time.Timer
	closed  bool

	ready chan struct{} // cap 1; wake signal for the round loop
}

// NewBatcher builds a batcher for an n-node system. weighted selects
// which Op kinds are accepted (the two task models never mix in one
// engine). batchSize ≤ 0 defaults to 4096; maxWait ≤ 0 to 2ms.
func NewBatcher(n int, weighted bool, batchSize int, maxWait time.Duration, m *Metrics) (*Batcher, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: batcher for %d nodes", n)
	}
	if batchSize <= 0 {
		batchSize = 4096
	}
	if maxWait <= 0 {
		maxWait = 2 * time.Millisecond
	}
	if m == nil {
		m = NewMetrics()
	}
	return &Batcher{
		n:         n,
		weighted:  weighted,
		batchSize: batchSize,
		maxWait:   maxWait,
		m:         m,
		ready:     make(chan struct{}, 1),
	}, nil
}

// Ready is the wake channel the round loop selects on; a receive means
// a group hit its size or deadline trigger (or nothing — spurious wakes
// after a take are possible and harmless).
func (b *Batcher) Ready() <-chan struct{} { return b.ready }

func (b *Batcher) validate(op Op) error {
	if op.Node < 0 || op.Node >= b.n {
		return fmt.Errorf("serve: node %d outside [0,%d)", op.Node, b.n)
	}
	if op.Count < 0 {
		return fmt.Errorf("serve: negative count %d", op.Count)
	}
	switch op.Kind {
	case OpArrive, OpComplete:
		if b.weighted {
			return fmt.Errorf("serve: uniform op on a weighted-model server")
		}
	case OpArriveWeighted:
		if !b.weighted {
			return fmt.Errorf("serve: weighted op on a uniform-model server")
		}
		if !(op.Weight > 0 && op.Weight <= 1) {
			return fmt.Errorf("serve: task weight %v outside (0,1]", op.Weight)
		}
	case OpCompleteWeighted:
		if !b.weighted {
			return fmt.Errorf("serve: weighted op on a uniform-model server")
		}
	default:
		return fmt.Errorf("serve: unknown op kind %d", op.Kind)
	}
	return nil
}

// Submit appends op to the pending group and returns a ticket for the
// admission round. Safe for concurrent use.
func (b *Batcher) Submit(op Op) (Ticket, error) {
	if err := b.validate(op); err != nil {
		b.m.rejected.Add(1)
		return Ticket{}, err
	}
	now := time.Now()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.m.rejected.Add(1)
		return Ticket{}, ErrClosed
	}
	g := b.pending
	if g == nil {
		g = &group{batch: b.takeFreeLocked(), first: now, done: make(chan struct{})}
		b.pending = g
		b.armTimerLocked()
	}
	addOp(g.batch, b.n, op)
	g.subs++
	full := g.subs >= b.batchSize && g.cause == causeNone
	if full {
		g.cause = causeSize
	}
	b.mu.Unlock()
	b.m.submissions.Add(1)
	if full {
		b.m.flushSize.Add(1)
		b.wake()
	}
	return Ticket{g: g, t0: now, m: b.m}, nil
}

func (b *Batcher) takeFreeLocked() *core.EventBatch {
	if k := len(b.free); k > 0 {
		batch := b.free[k-1]
		b.free = b.free[:k-1]
		return batch
	}
	return &core.EventBatch{}
}

// armTimerLocked starts the deadline countdown for a fresh group.
func (b *Batcher) armTimerLocked() {
	if b.timer == nil {
		b.timer = time.AfterFunc(b.maxWait, b.deadline)
		return
	}
	b.timer.Reset(b.maxWait)
}

// deadline fires MaxWait after a group's first submission.
func (b *Batcher) deadline() {
	b.mu.Lock()
	g := b.pending
	fire := g != nil && g.cause == causeNone
	if fire {
		g.cause = causeDeadline
	}
	b.mu.Unlock()
	if fire {
		b.m.flushDeadline.Add(1)
		b.wake()
	}
}

func (b *Batcher) wake() {
	select {
	case b.ready <- struct{}{}:
	default:
	}
}

// Take detaches and returns the pending group (nil if none). Only the
// round loop calls it; the returned group's batch is exclusively the
// caller's until Recycle.
func (b *Batcher) Take() *group {
	b.mu.Lock()
	g := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
	}
	closedNow := b.closed
	b.mu.Unlock()
	if g != nil && g.cause == causeNone {
		g.cause = causeFinal
		if closedNow {
			b.m.flushFinal.Add(1)
		}
	}
	return g
}

// Recycle returns a completed group's batch to the free pool, Reset
// so it keeps its dense vectors and per-node weight-list capacity for
// the next group. Call only after the batch has been applied and
// journaled; the group's done channel may be closed before or after.
func (b *Batcher) Recycle(batch *core.EventBatch) {
	batch.Reset()
	b.mu.Lock()
	b.free = append(b.free, batch)
	b.mu.Unlock()
}

// CloseSubmit stops accepting new submissions. Submissions already in
// the pending group stay in-flight; the round loop drains them with a
// final Take. Idempotent.
func (b *Batcher) CloseSubmit() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
}

// complete publishes the admission outcome to every waiter.
func (g *group) complete(round uint64, err error) {
	g.round = round
	g.err = err
	close(g.done)
}
