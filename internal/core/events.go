package core

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/task"
)

// EventBatch is one round's workload mutation, produced by the dynamics
// layer and applied by an engine before the round's protocol decisions.
// The uniform model uses Arrivals/Departures (per-node task counts); the
// weighted model uses WeightArrivals/WeightDepartures. Slices may be nil
// (no events of that kind) or exactly N long. Departures are requests:
// the application clamps them to the tasks actually present, and the
// returned EventLedger records what was applied, so conservation checks
// can be made net of the ledger.
type EventBatch struct {
	// Arrivals[i] unit tasks appear on node i before the round.
	Arrivals []int64
	// Departures[i] unit tasks complete on node i (clamped to its queue).
	Departures []int64
	// WeightArrivals[i] holds the weights (each in (0,1]) of the tasks
	// arriving on node i.
	WeightArrivals [][]float64
	// WeightDepartures[i] weighted tasks complete on node i (clamped).
	WeightDepartures []int64
}

// IsZero reports whether the batch carries no events.
func (b *EventBatch) IsZero() bool {
	if b == nil {
		return true
	}
	for _, v := range b.Arrivals {
		if v != 0 {
			return false
		}
	}
	for _, v := range b.Departures {
		if v != 0 {
			return false
		}
	}
	for _, ws := range b.WeightArrivals {
		if len(ws) != 0 {
			return false
		}
	}
	for _, v := range b.WeightDepartures {
		if v != 0 {
			return false
		}
	}
	return true
}

// ensureN grows (or allocates) a per-node vector to exactly n entries.
func ensureN[T any](v []T, n int) []T {
	if len(v) == n {
		return v
	}
	if cap(v) >= n {
		return v[:n]
	}
	nv := make([]T, n)
	copy(nv, v)
	return nv
}

// AddArrival accumulates k unit-task arrivals at node i, growing the
// per-node vector to n entries on first use. Together with the other
// Add* helpers and Merge it is the append surface request batchers
// (package serve) use to fold individual submissions into one batch
// per round without materializing intermediate batches.
func (b *EventBatch) AddArrival(n, i int, k int64) {
	b.Arrivals = ensureN(b.Arrivals, n)
	b.Arrivals[i] += k
}

// AddDeparture accumulates a k unit-task completion request at node i
// (clamped to the queue at application time).
func (b *EventBatch) AddDeparture(n, i int, k int64) {
	b.Departures = ensureN(b.Departures, n)
	b.Departures[i] += k
}

// AddWeightArrival appends one weighted-task arrival of weight w at
// node i. Append order is application order: the weights land on the
// node's queue in the order they were added, which is what makes a
// batch built from a recorded submission journal replay bit-exactly.
func (b *EventBatch) AddWeightArrival(n, i int, w float64) {
	if b.WeightArrivals == nil {
		b.WeightArrivals = make([][]float64, n)
	}
	b.WeightArrivals[i] = append(b.WeightArrivals[i], w)
}

// AddWeightDeparture accumulates a k weighted-task completion request
// at node i (most-recent-first, clamped at application time).
func (b *EventBatch) AddWeightDeparture(n, i int, k int64) {
	b.WeightDepartures = ensureN(b.WeightDepartures, n)
	b.WeightDepartures[i] += k
}

// Merge folds o into b: counts add, weight-arrival lists append in
// order. Both batches must be sized for the same n-node system (nil
// slices mean no events of that kind). Merging preserves application
// semantics for arrival order but NOT for arrival/departure
// interleaving — EventBatch application is always all-arrivals-then-
// all-departures — so two batches merged and applied once equal the
// two applied back-to-back only when no departure of the first batch
// races an arrival of the second on the same node; accumulating
// submission batchers accept that round-atomic semantics by design.
func (b *EventBatch) Merge(o *EventBatch) error {
	if o == nil {
		return nil
	}
	grow2 := func(a, ob int) (int, error) {
		switch {
		case ob == 0:
			return a, nil
		case a == 0 || a == ob:
			return ob, nil
		default:
			return 0, fmt.Errorf("core: merging batches sized for %d and %d nodes", a, ob)
		}
	}
	var err error
	n := 0
	for _, l := range []int{len(b.Arrivals), len(b.Departures), len(b.WeightArrivals), len(b.WeightDepartures),
		len(o.Arrivals), len(o.Departures), len(o.WeightArrivals), len(o.WeightDepartures)} {
		if n, err = grow2(n, l); err != nil {
			return err
		}
	}
	for i, k := range o.Arrivals {
		if k != 0 {
			b.AddArrival(n, i, k)
		}
	}
	for i, k := range o.Departures {
		if k != 0 {
			b.AddDeparture(n, i, k)
		}
	}
	for i, ws := range o.WeightArrivals {
		for _, w := range ws {
			b.AddWeightArrival(n, i, w)
		}
	}
	for i, k := range o.WeightDepartures {
		if k != 0 {
			b.AddWeightDeparture(n, i, k)
		}
	}
	return nil
}

// EventLedger accumulates the workload mutations actually applied during
// a run. Task and weight totals are conserved net of the ledger: for the
// uniform model, final = initial + Arrived − Departed; for the weighted
// model, the task count obeys initial + ArrivedTasks − DepartedTasks and
// the total weight obeys initial + ArrivedWeight − DepartedWeight (up to
// floating-point summation error).
type EventLedger struct {
	// Batches counts the event batches the driver applied.
	Batches int `json:"batches,omitempty"`
	// Arrived and Departed count uniform tasks injected and drained.
	Arrived  int64 `json:"arrived,omitempty"`
	Departed int64 `json:"departed,omitempty"`
	// ArrivedTasks/ArrivedWeight and DepartedTasks/DepartedWeight count
	// weighted tasks and their total weight.
	ArrivedTasks   int64   `json:"arrivedTasks,omitempty"`
	ArrivedWeight  float64 `json:"arrivedWeight,omitempty"`
	DepartedTasks  int64   `json:"departedTasks,omitempty"`
	DepartedWeight float64 `json:"departedWeight,omitempty"`
}

// Add accumulates d into l.
func (l *EventLedger) Add(d EventLedger) {
	l.Batches += d.Batches
	l.Arrived += d.Arrived
	l.Departed += d.Departed
	l.ArrivedTasks += d.ArrivedTasks
	l.ArrivedWeight += d.ArrivedWeight
	l.DepartedTasks += d.DepartedTasks
	l.DepartedWeight += d.DepartedWeight
}

// DynamicEngine is an Engine that accepts pre-round workload mutation.
// Drive calls ApplyEvents with the batch for round r immediately before
// Step(r), so the round's protocol decisions see the post-event state.
// Every engine applies the same batch to the same pre-round state, and
// departure clamping depends only on that state, so the returned ledgers
// — and the trajectories — stay bit-identical across engines.
type DynamicEngine interface {
	ApplyEvents(batch *EventBatch) (EventLedger, error)
}

// EventStepper is a DynamicEngine that can fuse a round's event batch
// into the round itself. Drive prefers StepEvents over the
// ApplyEvents-then-Step pair when a batch is due: engines that span a
// coordination boundary (the cluster) piggyback the batch on the round's
// opening frame and the report on the first gather, removing one full
// barrier round-trip per event batch. The semantics are identical to
// ApplyEvents(batch) followed by Step(r, base) — events land on the
// pre-round state, the round's decisions see the post-event state, and
// the returned ledger and move count are bit-identical.
type EventStepper interface {
	StepEvents(r uint64, base *rng.Stream, batch *EventBatch) (int64, EventLedger, error)
}

// ApplyCountsBatch applies the uniform-model part of batch to counts in
// place: arrivals first, then departures clamped to the tasks present.
// It is the single source of truth for uniform event application,
// shared by the sequential state and the shard engine.
func ApplyCountsBatch(counts []int64, batch *EventBatch) (EventLedger, error) {
	var led EventLedger
	if batch == nil {
		return led, nil
	}
	n := len(counts)
	if len(batch.Arrivals) != 0 && len(batch.Arrivals) != n {
		return led, fmt.Errorf("core: %d arrival entries for %d nodes", len(batch.Arrivals), n)
	}
	if len(batch.Departures) != 0 && len(batch.Departures) != n {
		return led, fmt.Errorf("core: %d departure entries for %d nodes", len(batch.Departures), n)
	}
	for i, a := range batch.Arrivals {
		if a < 0 {
			return led, fmt.Errorf("core: negative arrival %d at node %d", a, i)
		}
		if a == 0 {
			continue
		}
		counts[i] += a
		led.Arrived += a
	}
	for i, d := range batch.Departures {
		if d < 0 {
			return led, fmt.Errorf("core: negative departure %d at node %d", d, i)
		}
		if d > counts[i] {
			d = counts[i]
		}
		if d == 0 {
			continue
		}
		counts[i] -= d
		led.Departed += d
	}
	return led, nil
}

// Inject adds k unit tasks to node i.
func (st *UniformState) Inject(i int, k int64) error {
	if i < 0 || i >= len(st.counts) {
		return fmt.Errorf("core: inject at node %d of %d", i, len(st.counts))
	}
	if k < 0 {
		return fmt.Errorf("core: negative injection %d", k)
	}
	st.counts[i] += k
	st.total += k
	return nil
}

// Drain removes up to k unit tasks from node i and returns the number
// actually removed.
func (st *UniformState) Drain(i int, k int64) int64 {
	if i < 0 || i >= len(st.counts) || k <= 0 {
		return 0
	}
	if k > st.counts[i] {
		k = st.counts[i]
	}
	st.counts[i] -= k
	st.total -= k
	return k
}

// ApplyEvents implements the uniform-model event application on the
// sequential state; see ApplyCountsBatch for the semantics.
func (st *UniformState) ApplyEvents(batch *EventBatch) (EventLedger, error) {
	led, err := ApplyCountsBatch(st.counts, batch)
	st.total += led.Arrived - led.Departed
	return led, err
}

// Resize moves the distribution onto a new system after a topology
// change: oldOf[newI] names the node of the current system whose tasks
// node newI inherits, or -1 for a freshly joined (empty) node. Every
// current node must either be referenced exactly once or hold zero tasks
// — tasks cannot silently vanish; rehome them (Drain/Inject) before
// resizing. That makes Resize conserving by construction.
func (st *UniformState) Resize(newSys *System, oldOf []int) (*UniformState, error) {
	if newSys == nil {
		return nil, fmt.Errorf("core: resize onto nil system")
	}
	if len(oldOf) != newSys.N() {
		return nil, fmt.Errorf("core: %d mappings for %d nodes", len(oldOf), newSys.N())
	}
	counts := make([]int64, newSys.N())
	used := make([]bool, len(st.counts))
	for newI, oldI := range oldOf {
		if oldI < 0 {
			continue
		}
		if oldI >= len(st.counts) {
			return nil, fmt.Errorf("core: resize mapping %d out of range [0,%d)", oldI, len(st.counts))
		}
		if used[oldI] {
			return nil, fmt.Errorf("core: resize mapping references node %d twice", oldI)
		}
		used[oldI] = true
		counts[newI] = st.counts[oldI]
	}
	for oldI, u := range used {
		if !u && st.counts[oldI] != 0 {
			return nil, fmt.Errorf("core: resize drops %d tasks on node %d; rehome them first", st.counts[oldI], oldI)
		}
	}
	return NewUniformState(newSys, counts)
}

// Inject adds tasks with the given weights (each in (0,1]) to node i.
func (st *WeightedState) Inject(i int, ws []float64) error {
	if i < 0 || i >= len(st.tasks) {
		return fmt.Errorf("core: inject at node %d of %d", i, len(st.tasks))
	}
	if err := task.Weights(ws).Validate(); err != nil {
		return err
	}
	for _, w := range ws {
		st.tasks[i] = append(st.tasks[i], w)
		st.nodeWeight[i] += w
		st.totalW += w
	}
	st.count += len(ws)
	st.sinceRecompute += len(ws)
	if st.sinceRecompute >= WeightRecomputeEvery {
		st.RecomputeWeights()
	}
	return nil
}

// Drain removes up to k tasks from node i — the most recently appended
// first, which is deterministic because every engine maintains the
// identical task order — and returns their weights.
func (st *WeightedState) Drain(i, k int) task.Weights {
	if i < 0 || i >= len(st.tasks) || k <= 0 {
		return nil
	}
	if k > len(st.tasks[i]) {
		k = len(st.tasks[i])
	}
	cut := len(st.tasks[i]) - k
	removed := append(task.Weights(nil), st.tasks[i][cut:]...)
	st.tasks[i] = st.tasks[i][:cut]
	for _, w := range removed {
		st.nodeWeight[i] -= w
		st.totalW -= w
	}
	st.count -= k
	st.sinceRecompute += k
	if st.sinceRecompute >= WeightRecomputeEvery {
		st.RecomputeWeights()
	}
	return removed
}

// ApplyEvents implements the weighted-model event application:
// WeightArrivals are injected first, then WeightDepartures drain tasks
// (most recent first, clamped to the queue).
func (st *WeightedState) ApplyEvents(batch *EventBatch) (EventLedger, error) {
	var led EventLedger
	if batch == nil {
		return led, nil
	}
	n := len(st.tasks)
	if len(batch.WeightArrivals) != 0 && len(batch.WeightArrivals) != n {
		return led, fmt.Errorf("core: %d weight-arrival entries for %d nodes", len(batch.WeightArrivals), n)
	}
	if len(batch.WeightDepartures) != 0 && len(batch.WeightDepartures) != n {
		return led, fmt.Errorf("core: %d weight-departure entries for %d nodes", len(batch.WeightDepartures), n)
	}
	for i, ws := range batch.WeightArrivals {
		if len(ws) == 0 {
			continue
		}
		if err := st.Inject(i, ws); err != nil {
			return led, err
		}
		led.ArrivedTasks += int64(len(ws))
		for _, w := range ws {
			led.ArrivedWeight += w
		}
	}
	for i, d := range batch.WeightDepartures {
		if d < 0 {
			return led, fmt.Errorf("core: negative weight departure %d at node %d", d, i)
		}
		removed := st.Drain(i, int(d))
		led.DepartedTasks += int64(len(removed))
		led.DepartedWeight += removed.Total()
	}
	return led, nil
}

// Resize moves the weighted distribution onto a new system; the mapping
// contract is identical to UniformState.Resize (unreferenced nodes must
// be empty).
func (st *WeightedState) Resize(newSys *System, oldOf []int) (*WeightedState, error) {
	if newSys == nil {
		return nil, fmt.Errorf("core: resize onto nil system")
	}
	if len(oldOf) != newSys.N() {
		return nil, fmt.Errorf("core: %d mappings for %d nodes", len(oldOf), newSys.N())
	}
	perNode := make([]task.Weights, newSys.N())
	used := make([]bool, len(st.tasks))
	for newI, oldI := range oldOf {
		if oldI < 0 {
			continue
		}
		if oldI >= len(st.tasks) {
			return nil, fmt.Errorf("core: resize mapping %d out of range [0,%d)", oldI, len(st.tasks))
		}
		if used[oldI] {
			return nil, fmt.Errorf("core: resize mapping references node %d twice", oldI)
		}
		used[oldI] = true
		perNode[newI] = append(task.Weights(nil), st.tasks[oldI]...)
	}
	for oldI, u := range used {
		if !u && len(st.tasks[oldI]) != 0 {
			return nil, fmt.Errorf("core: resize drops %d tasks on node %d; rehome them first", len(st.tasks[oldI]), oldI)
		}
	}
	return NewWeightedState(newSys, perNode)
}
