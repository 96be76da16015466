package core

import (
	"fmt"
	"slices"

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
//
// Alongside the dense vectors a batch keeps a touched-node index, so
// that appliers walk only the nodes that carry events (Nodes). The
// index covers the vectors the Add helpers, Merge and Reset allocated
// or adopted; entries of those vectors change only through them. Any
// other vector — a struct literal, a generator filling its own
// vectors, a vector assigned after an Add call — is detected, and the
// batch falls back to scanning all four vectors, so no event is lost.
// Pass batches by pointer: a copied value shares its vectors and index.
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

	idx eventIndex
}

// eventIndex is an EventBatch's touched-node index.
type eventIndex struct {
	// nodes holds every node an Add helper wrote while the index covered
	// the batch: in first-touch order (unsorted) until Nodes sorts it,
	// possibly with duplicates or nodes whose events cancelled, which
	// Nodes drops.
	nodes    []int
	unsorted bool
	// a, d, wa and wd are the vectors the index covers. mixed records
	// that an Add helper wrote a batch holding some other vector; such a
	// batch is scanned until Reset.
	a, d, wd []int64
	wa       [][]float64
	mixed    bool
	// scan is the reused result buffer of the scanning fallback.
	scan []int
}

// sameVec reports whether v and w are the same vector: same length and,
// when non-empty, the same backing array.
func sameVec[T any](v, w []T) bool {
	return len(v) == len(w) && (len(v) == 0 || &v[0] == &w[0])
}

// indexed reports whether the touched-node index covers the batch.
func (b *EventBatch) indexed() bool {
	x := &b.idx
	return !x.mixed && sameVec(b.Arrivals, x.a) && sameVec(b.Departures, x.d) &&
		sameVec(b.WeightArrivals, x.wa) && sameVec(b.WeightDepartures, x.wd)
}

// adopt makes the index cover the batch's current vectors.
func (b *EventBatch) adopt() {
	x := &b.idx
	x.a, x.d, x.wa, x.wd = b.Arrivals, b.Departures, b.WeightArrivals, b.WeightDepartures
}

// span is the length of the batch's longest vector.
func (b *EventBatch) span() int {
	return max(len(b.Arrivals), len(b.Departures), len(b.WeightArrivals), len(b.WeightDepartures))
}

// carries reports whether node i has an event of any kind.
func (b *EventBatch) carries(i int) bool {
	return i < len(b.Arrivals) && b.Arrivals[i] != 0 ||
		i < len(b.Departures) && b.Departures[i] != 0 ||
		i < len(b.WeightArrivals) && len(b.WeightArrivals[i]) != 0 ||
		i < len(b.WeightDepartures) && b.WeightDepartures[i] != 0
}

// touch runs before an Add helper writes node i. It reports whether
// the index covers the batch and, if so, records i unless it already
// carries an event; otherwise it marks the batch mixed.
func (b *EventBatch) touch(i int) bool {
	x := &b.idx
	if !b.indexed() {
		x.mixed = true
		return false
	}
	if !b.carries(i) {
		if k := len(x.nodes); k > 0 && x.nodes[k-1] >= i {
			x.unsorted = true
		}
		x.nodes = append(x.nodes, i)
	}
	return true
}

// Nodes returns the nodes that carry any event, ascending and
// distinct. An indexed batch answers in O(touched); a directly written
// one is scanned in O(n). The slice is owned by the batch and valid
// until its next mutation; like the Add helpers, Nodes is not safe for
// concurrent use.
func (b *EventBatch) Nodes() []int {
	if b == nil {
		return nil
	}
	x := &b.idx
	if !b.indexed() {
		out := x.scan[:0]
		for i := range b.span() {
			if b.carries(i) {
				out = append(out, i)
			}
		}
		x.scan = out
		return out
	}
	if x.unsorted {
		slices.Sort(x.nodes)
		x.unsorted = false
	}
	out := x.nodes[:0]
	for k, i := range x.nodes {
		if (k == 0 || i != x.nodes[k-1]) && b.carries(i) {
			out = append(out, i)
		}
	}
	x.nodes = out
	return out
}

// NodesIn returns the part of an ascending node list inside [lo,hi).
func NodesIn(nodes []int, lo, hi int) []int {
	a, _ := slices.BinarySearch(nodes, lo)
	z, _ := slices.BinarySearch(nodes[a:], hi)
	return nodes[a : a+z]
}

// IsZero reports whether the batch carries no events: from the index
// when it covers the batch, by a scan that stops at the first event
// otherwise.
func (b *EventBatch) IsZero() bool {
	if b == nil {
		return true
	}
	if b.indexed() {
		for _, i := range b.idx.nodes {
			if b.carries(i) {
				return false
			}
		}
		return true
	}
	for i := range b.span() {
		if b.carries(i) {
			return false
		}
	}
	return true
}

// Reset empties the batch for reuse and keeps its vectors. An indexed
// batch clears only its touched entries and keeps each node's
// weight-list capacity; a directly written one is cleared by a scan
// (dropping its weight lists, which may be the caller's), after which
// the index covers its now-zero vectors.
func (b *EventBatch) Reset() {
	indexed := b.indexed()
	for _, i := range b.Nodes() {
		if i < len(b.Arrivals) {
			b.Arrivals[i] = 0
		}
		if i < len(b.Departures) {
			b.Departures[i] = 0
		}
		if i < len(b.WeightArrivals) {
			if indexed {
				b.WeightArrivals[i] = b.WeightArrivals[i][:0]
			} else {
				b.WeightArrivals[i] = nil
			}
		}
		if i < len(b.WeightDepartures) {
			b.WeightDepartures[i] = 0
		}
	}
	x := &b.idx
	x.nodes, x.unsorted, x.mixed = x.nodes[:0], false, false
	b.adopt()
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
// (package serve) and the cluster workers' frame decoder use to fold
// individual events into one batch without materializing intermediate
// batches; each call maintains the touched-node index.
func (b *EventBatch) AddArrival(n, i int, k int64) {
	ok := b.touch(i)
	b.Arrivals = ensureN(b.Arrivals, n)
	b.Arrivals[i] += k
	if ok {
		b.adopt()
	}
}

// AddDeparture accumulates a k unit-task completion request at node i
// (clamped to the queue at application time).
func (b *EventBatch) AddDeparture(n, i int, k int64) {
	ok := b.touch(i)
	b.Departures = ensureN(b.Departures, n)
	b.Departures[i] += k
	if ok {
		b.adopt()
	}
}

// AddWeightArrival appends one weighted-task arrival of weight w at
// node i. Append order is application order: the weights land on the
// node's queue in the order they were added, which is what makes a
// batch built from a recorded submission journal replay bit-exactly.
func (b *EventBatch) AddWeightArrival(n, i int, w float64) {
	ok := b.touch(i)
	b.WeightArrivals = ensureN(b.WeightArrivals, n)
	b.WeightArrivals[i] = append(b.WeightArrivals[i], w)
	if ok {
		b.adopt()
	}
}

// AddWeightDeparture accumulates a k weighted-task completion request
// at node i (most-recent-first, clamped at application time).
func (b *EventBatch) AddWeightDeparture(n, i int, k int64) {
	ok := b.touch(i)
	b.WeightDepartures = ensureN(b.WeightDepartures, n)
	b.WeightDepartures[i] += k
	if ok {
		b.adopt()
	}
}

// Merge folds o into b: counts add, weight-arrival lists append in
// order; it walks only o's touched nodes. Both batches must be sized
// for the same n-node system (nil slices mean no events of that
// kind). Merging preserves application
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
	for _, i := range o.Nodes() {
		if i < len(o.Arrivals) && o.Arrivals[i] != 0 {
			b.AddArrival(n, i, o.Arrivals[i])
		}
		if i < len(o.Departures) && o.Departures[i] != 0 {
			b.AddDeparture(n, i, o.Departures[i])
		}
		if i < len(o.WeightArrivals) {
			for _, w := range o.WeightArrivals[i] {
				b.AddWeightArrival(n, i, w)
			}
		}
		if i < len(o.WeightDepartures) && o.WeightDepartures[i] != 0 {
			b.AddWeightDeparture(n, i, o.WeightDepartures[i])
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
// shared by the sequential state and the shard engine, and walks only
// the batch's touched nodes (EventBatch.Nodes), ascending.
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
	nodes := NodesIn(batch.Nodes(), 0, n)
	if arr := batch.Arrivals; len(arr) != 0 {
		for _, i := range nodes {
			a := arr[i]
			if a < 0 {
				return led, fmt.Errorf("core: negative arrival %d at node %d", a, i)
			}
			counts[i] += a
			led.Arrived += a
		}
	}
	if dep := batch.Departures; len(dep) != 0 {
		for _, i := range nodes {
			d := dep[i]
			if d < 0 {
				return led, fmt.Errorf("core: negative departure %d at node %d", d, i)
			}
			if d > counts[i] {
				d = counts[i]
			}
			counts[i] -= d
			led.Departed += d
		}
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
// (most recent first, clamped to the queue), each over the touched
// nodes ascending.
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
	nodes := NodesIn(batch.Nodes(), 0, n)
	if wa := batch.WeightArrivals; len(wa) != 0 {
		for _, i := range nodes {
			ws := wa[i]
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
	}
	if wd := batch.WeightDepartures; len(wd) != 0 {
		for _, i := range nodes {
			d := wd[i]
			if d < 0 {
				return led, fmt.Errorf("core: negative weight departure %d at node %d", d, i)
			}
			removed := st.Drain(i, int(d))
			led.DepartedTasks += int64(len(removed))
			led.DepartedWeight += removed.Total()
		}
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
