package core

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/task"
)

func eventTestSystem(t *testing.T, n int) *System {
	t.Helper()
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, machine.Uniform(n), WithLambda2(0.5))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestUniformInjectDrain(t *testing.T) {
	sys := eventTestSystem(t, 4)
	st, err := NewUniformState(sys, []int64{10, 0, 5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Inject(1, 7); err != nil {
		t.Fatal(err)
	}
	if st.Count(1) != 7 || st.Total() != 23 {
		t.Fatalf("after inject: count=%d total=%d", st.Count(1), st.Total())
	}
	if got := st.Drain(0, 4); got != 4 {
		t.Fatalf("drain removed %d, want 4", got)
	}
	// Drain clamps to the queue.
	if got := st.Drain(3, 100); got != 1 {
		t.Fatalf("clamped drain removed %d, want 1", got)
	}
	if st.Total() != 18 {
		t.Fatalf("total %d, want 18", st.Total())
	}
	if err := st.Inject(-1, 1); err == nil {
		t.Error("out-of-range inject accepted")
	}
	if err := st.Inject(0, -1); err == nil {
		t.Error("negative inject accepted")
	}
}

func TestApplyCountsBatch(t *testing.T) {
	counts := []int64{5, 0, 2}
	led, err := ApplyCountsBatch(counts, &EventBatch{
		Arrivals:   []int64{1, 2, 0},
		Departures: []int64{10, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0: 5+1=6, departs min(10,6)=6 → 0. Node 1: 0+2=2, departs 1 → 1.
	want := []int64{0, 1, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
	if led.Arrived != 3 || led.Departed != 7 {
		t.Fatalf("ledger %+v, want arrived 3 departed 7", led)
	}
	if _, err := ApplyCountsBatch(counts, &EventBatch{Arrivals: []int64{1}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ApplyCountsBatch(counts, &EventBatch{Arrivals: []int64{-1, 0, 0}}); err == nil {
		t.Error("negative arrival accepted")
	}
}

func TestUniformResizeConservation(t *testing.T) {
	sys := eventTestSystem(t, 4)
	st, err := NewUniformState(sys, []int64{3, 4, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	big := eventTestSystem(t, 5)
	// Join-style mapping: identity plus a fresh node.
	grown, err := st.Resize(big, []int{0, 1, 2, 3, -1})
	if err != nil {
		t.Fatal(err)
	}
	if grown.Total() != st.Total() || grown.Count(4) != 0 {
		t.Fatalf("grown total %d (want %d), new node %d tasks", grown.Total(), st.Total(), grown.Count(4))
	}
	// Leave-style mapping dropping the empty node 3.
	small := eventTestSystem(t, 3)
	shrunk, err := st.Resize(small, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Total() != st.Total() {
		t.Fatalf("shrunk total %d, want %d", shrunk.Total(), st.Total())
	}
	// Dropping a non-empty node must fail loudly.
	if _, err := st.Resize(small, []int{0, 1, 3}); err == nil {
		t.Error("resize silently dropped tasks")
	}
	// Double references must fail.
	if _, err := st.Resize(small, []int{0, 0, 1}); err == nil {
		t.Error("resize accepted duplicate mapping")
	}
}

func TestWeightedInjectDrainApply(t *testing.T) {
	sys := eventTestSystem(t, 3)
	st, err := NewWeightedState(sys, []task.Weights{{0.5, 0.25}, {}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Inject(1, []float64{0.75, 0.5}); err != nil {
		t.Fatal(err)
	}
	if st.TaskCount() != 5 || st.NodeTaskCount(1) != 2 {
		t.Fatalf("after inject: count=%d node1=%d", st.TaskCount(), st.NodeTaskCount(1))
	}
	if err := st.Inject(0, []float64{1.5}); err == nil {
		t.Error("out-of-range weight accepted")
	}
	removed := st.Drain(1, 5)
	if len(removed) != 2 {
		t.Fatalf("drain removed %d tasks, want 2", len(removed))
	}
	// LIFO: most recently injected first slot removed last in slice order.
	if removed[0] != 0.75 || removed[1] != 0.5 {
		t.Fatalf("drained weights %v", removed)
	}
	led, err := st.ApplyEvents(&EventBatch{
		WeightArrivals:   [][]float64{{0.1}, nil, nil},
		WeightDepartures: []int64{0, 0, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if led.ArrivedTasks != 1 || led.DepartedTasks != 1 || led.DepartedWeight != 1 {
		t.Fatalf("ledger %+v", led)
	}
	if st.TaskCount() != 3 {
		t.Fatalf("task count %d, want 3", st.TaskCount())
	}
}

// TestDriveEventsUniform checks the Drive hook end to end on the
// sequential engine: ledger accounting and conservation.
func TestDriveEventsUniform(t *testing.T) {
	sys := eventTestSystem(t, 4)
	st, err := NewUniformState(sys, []int64{40, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	initial := st.Total()
	events := func(r uint64) *EventBatch {
		if r%2 == 0 {
			return nil
		}
		return &EventBatch{
			Arrivals:   []int64{0, 3, 0, 0},
			Departures: []int64{1, 0, 0, 0},
		}
	}
	res, err := RunUniform(st, Algorithm1{}, nil, RunOpts{MaxRounds: 10, Seed: 5, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Batches != 5 {
		t.Fatalf("applied %d batches, want 5", res.Ledger.Batches)
	}
	if res.Ledger.Arrived != 15 || res.Ledger.Departed != 5 {
		t.Fatalf("ledger %+v", res.Ledger)
	}
	if got, want := st.Total(), initial+res.Ledger.Arrived-res.Ledger.Departed; got != want {
		t.Fatalf("total %d, want %d (conservation net of ledger)", got, want)
	}
}

// nonDynamicEngine is an Engine that does not implement DynamicEngine.
type nonDynamicEngine struct{ st *UniformState }

func (e nonDynamicEngine) Step(round uint64, base *rng.Stream) (int64, error) { return 0, nil }
func (e nonDynamicEngine) State() (*UniformState, error)                      { return e.st, nil }

// TestDriveEventsRequiresDynamicEngine: a static engine given an event
// stream must fail loudly, not silently drop the events.
func TestDriveEventsRequiresDynamicEngine(t *testing.T) {
	sys := eventTestSystem(t, 4)
	st, err := NewUniformState(sys, []int64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	events := func(uint64) *EventBatch { return &EventBatch{} }
	_, err = Drive[*UniformState](nonDynamicEngine{st}, nil, RunOpts{MaxRounds: 1, Seed: 1, Events: events})
	if err == nil {
		t.Fatal("static engine accepted an event stream")
	}
}

// TestDriveEventsErrorPropagates: a bad batch aborts the run with the
// application error.
func TestDriveEventsErrorPropagates(t *testing.T) {
	sys := eventTestSystem(t, 4)
	st, err := NewUniformState(sys, []int64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	events := func(uint64) *EventBatch { return &EventBatch{Arrivals: []int64{1}} }
	_, err = RunUniform(st, Algorithm1{}, nil, RunOpts{MaxRounds: 3, Seed: 1, Events: events})
	if err == nil || errors.Is(err, ErrMaxRounds) {
		t.Fatalf("want batch application error, got %v", err)
	}
}

func TestEventBatchIsZero(t *testing.T) {
	if !(*EventBatch)(nil).IsZero() {
		t.Error("nil batch not zero")
	}
	if !(&EventBatch{Arrivals: []int64{0, 0}}).IsZero() {
		t.Error("all-zero batch not zero")
	}
	if (&EventBatch{Departures: []int64{0, 1}}).IsZero() {
		t.Error("non-empty batch reported zero")
	}
	if (&EventBatch{WeightArrivals: [][]float64{{0.5}}}).IsZero() {
		t.Error("weighted batch reported zero")
	}
}

func TestEventBatchAddHelpers(t *testing.T) {
	var b EventBatch
	b.AddArrival(4, 1, 3)
	b.AddArrival(4, 1, 2)
	b.AddDeparture(4, 0, 1)
	b.AddWeightArrival(4, 2, 0.5)
	b.AddWeightArrival(4, 2, 0.25)
	b.AddWeightArrival(4, 0, 1.5)
	b.AddWeightDeparture(4, 3, 7)
	if got, want := b.Arrivals[1], int64(5); got != want {
		t.Fatalf("arrivals[1]=%d, want %d", got, want)
	}
	if len(b.Arrivals) != 4 || len(b.Departures) != 4 || len(b.WeightArrivals) != 4 || len(b.WeightDepartures) != 4 {
		t.Fatalf("per-node vectors not sized to n: %d %d %d %d",
			len(b.Arrivals), len(b.Departures), len(b.WeightArrivals), len(b.WeightDepartures))
	}
	if b.Departures[0] != 1 || b.WeightDepartures[3] != 7 {
		t.Fatalf("departures not accumulated: %v %v", b.Departures, b.WeightDepartures)
	}
	// Weight arrivals must keep append order — that is the replay contract.
	if got := b.WeightArrivals[2]; len(got) != 2 || got[0] != 0.5 || got[1] != 0.25 {
		t.Fatalf("weight arrivals out of order: %v", got)
	}
	if b.IsZero() {
		t.Error("populated batch reported zero")
	}
}

func TestEventBatchMerge(t *testing.T) {
	var a EventBatch
	a.AddArrival(3, 0, 2)
	a.AddWeightArrival(3, 1, 1.0)
	var b EventBatch
	b.AddArrival(3, 0, 1)
	b.AddDeparture(3, 2, 4)
	b.AddWeightArrival(3, 1, 2.0)
	b.AddWeightDeparture(3, 0, 1)
	if err := a.Merge(&b); err != nil {
		t.Fatal(err)
	}
	if a.Arrivals[0] != 3 || a.Departures[2] != 4 || a.WeightDepartures[0] != 1 {
		t.Fatalf("counts not merged: %v %v %v", a.Arrivals, a.Departures, a.WeightDepartures)
	}
	if got := a.WeightArrivals[1]; len(got) != 2 || got[0] != 1.0 || got[1] != 2.0 {
		t.Fatalf("weight arrivals not appended in order: %v", got)
	}
	// Merging into an empty batch adopts the other batch's size.
	var c EventBatch
	if err := c.Merge(&a); err != nil {
		t.Fatal(err)
	}
	if len(c.Arrivals) != 3 || c.Arrivals[0] != 3 {
		t.Fatalf("empty-target merge wrong: %v", c.Arrivals)
	}
	// Merging a nil or zero batch is a no-op.
	before := len(c.WeightArrivals[1])
	if err := c.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Merge(&EventBatch{}); err != nil {
		t.Fatal(err)
	}
	if len(c.WeightArrivals[1]) != before {
		t.Fatal("no-op merge mutated the batch")
	}
	// Size mismatch is an error.
	var d EventBatch
	d.AddArrival(5, 0, 1)
	if err := c.Merge(&d); err == nil {
		t.Error("merging differently sized batches accepted")
	}
}

// Batches built incrementally with the Add helpers must apply exactly
// like hand-built dense batches.
func TestEventBatchAddHelpersApply(t *testing.T) {
	sys := eventTestSystem(t, 3)
	st, err := NewUniformState(sys, []int64{4, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	var b EventBatch
	b.AddArrival(3, 1, 5)
	b.AddDeparture(3, 0, 2)
	led, err := st.ApplyEvents(&b)
	if err != nil {
		t.Fatal(err)
	}
	if led.Arrived != 5 || led.Departed != 2 {
		t.Fatalf("ledger %+v", led)
	}
	if st.Count(0) != 2 || st.Count(1) != 5 || st.Count(2) != 2 {
		t.Fatalf("counts after apply: %d %d %d", st.Count(0), st.Count(1), st.Count(2))
	}
}

func TestSeqEngineConstructors(t *testing.T) {
	sys := eventTestSystem(t, 4)
	st, err := NewUniformState(sys, []int64{8, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := SeqUniformEngine(st, Algorithm1{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(0, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	got, err := eng.State()
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Error("SeqUniformEngine does not expose the caller's state")
	}
	if _, ok := any(eng).(DynamicEngine); !ok {
		t.Error("SeqUniformEngine is not a DynamicEngine")
	}
	if _, err := SeqUniformEngine(nil, Algorithm1{}); err == nil {
		t.Error("nil state accepted")
	}

	wst, err := NewWeightedState(sys, []task.Weights{{1, 0.25}, nil, nil, {0.5}})
	if err != nil {
		t.Fatal(err)
	}
	weng, err := SeqWeightedEngine(wst, Algorithm2{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := weng.Step(0, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := any(weng).(DynamicEngine); !ok {
		t.Error("SeqWeightedEngine is not a DynamicEngine")
	}
	if _, err := SeqWeightedEngine(wst, nil); err == nil {
		t.Error("nil protocol accepted")
	}
}

// randomBatchPair draws a random batch over n nodes twice: once as a
// dense literal and once through the Add helpers in a shuffled order
// (weight lists keep their per-node order, the replay contract).
func randomBatchPair(s *rng.Stream, n int) (lit, added *EventBatch) {
	lit = &EventBatch{
		Arrivals:         make([]int64, n),
		Departures:       make([]int64, n),
		WeightArrivals:   make([][]float64, n),
		WeightDepartures: make([]int64, n),
	}
	type op struct {
		kind, node int
		k          int64
		w          float64
	}
	var ops []op
	for e := s.Intn(3 * n); e > 0; e-- {
		o := op{kind: s.Intn(4), node: s.Intn(n), k: int64(1 + s.Intn(3)), w: 0.05 + 0.95*s.Float64()}
		ops = append(ops, o)
		switch o.kind {
		case 0:
			lit.Arrivals[o.node] += o.k
		case 1:
			lit.Departures[o.node] += o.k
		case 2:
			lit.WeightArrivals[o.node] = append(lit.WeightArrivals[o.node], o.w)
		case 3:
			lit.WeightDepartures[o.node] += o.k
		}
	}
	// Shuffle across nodes and kinds, then hand each node's weight
	// arrivals their weights in the literal's order.
	s.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	next := make([]int, n)
	for k, o := range ops {
		if o.kind == 2 {
			ops[k].w = lit.WeightArrivals[o.node][next[o.node]]
			next[o.node]++
		}
	}
	added = &EventBatch{}
	for _, o := range ops {
		switch o.kind {
		case 0:
			added.AddArrival(n, o.node, o.k)
		case 1:
			added.AddDeparture(n, o.node, o.k)
		case 2:
			added.AddWeightArrival(n, o.node, o.w)
		case 3:
			added.AddWeightDeparture(n, o.node, o.k)
		}
	}
	return lit, added
}

// TestEventBatchNodesAddVsLiteral: the touched-node index of a batch
// built with the Add helpers lists exactly the nodes a scan of the
// equivalent literal finds, ascending and distinct — and both forms
// apply to identical ledgers and states on both sequential models.
func TestEventBatchNodesAddVsLiteral(t *testing.T) {
	s := rng.New(41)
	for trial := 0; trial < 200; trial++ {
		n := 1 + s.Intn(40)
		lit, added := randomBatchPair(s, n)
		var want []int
		for i := 0; i < n; i++ {
			if lit.Arrivals[i] != 0 || lit.Departures[i] != 0 || len(lit.WeightArrivals[i]) != 0 || lit.WeightDepartures[i] != 0 {
				want = append(want, i)
			}
		}
		if !slices.Equal(lit.Nodes(), want) || !slices.Equal(added.Nodes(), want) {
			t.Fatalf("trial %d: literal nodes %v, added nodes %v, want %v", trial, lit.Nodes(), added.Nodes(), want)
		}
		if lit.IsZero() != (len(want) == 0) || added.IsZero() != (len(want) == 0) {
			t.Fatalf("trial %d: IsZero literal %v added %v with %d touched nodes", trial, lit.IsZero(), added.IsZero(), len(want))
		}
		sys := eventTestSystem(t, max(n, 3))
		if sys.N() != n {
			continue // rings need three nodes; the Nodes check above still ran
		}
		counts := make([]int64, n)
		perNode := make([]task.Weights, n)
		for i := range counts {
			counts[i] = int64(s.Intn(4))
			for k := s.Intn(4); k > 0; k-- {
				perNode[i] = append(perNode[i], 0.1+0.9*s.Float64())
			}
		}
		var leds [2]EventLedger
		var totals [2]int64
		var wsts [2]*WeightedState
		for f, b := range []*EventBatch{lit, added} {
			ust, err := NewUniformState(sys, slices.Clone(counts))
			if err != nil {
				t.Fatal(err)
			}
			uled, err := ust.ApplyEvents(b)
			if err != nil {
				t.Fatal(err)
			}
			wst, err := NewWeightedState(sys, perNode)
			if err != nil {
				t.Fatal(err)
			}
			wled, err := wst.ApplyEvents(b)
			if err != nil {
				t.Fatal(err)
			}
			uled.Add(wled)
			leds[f], totals[f], wsts[f] = uled, ust.Total(), wst
		}
		if leds[0] != leds[1] || totals[0] != totals[1] {
			t.Fatalf("trial %d: literal ledger %+v total %d, added %+v total %d", trial, leds[0], totals[0], leds[1], totals[1])
		}
		for i := 0; i < n; i++ {
			if !slices.Equal(wsts[0].TaskWeights(i), wsts[1].TaskWeights(i)) || wsts[0].NodeWeight(i) != wsts[1].NodeWeight(i) {
				t.Fatalf("trial %d: node %d differs between literal and added batch", trial, i)
			}
		}
	}
}

// TestEventBatchReset: Reset leaves an indexed batch zero with its
// vectors and weight-list capacity intact, and clears a directly
// written batch in full, after which the Add helpers index it.
func TestEventBatchReset(t *testing.T) {
	var b EventBatch
	b.AddArrival(8, 3, 2)
	b.AddDeparture(8, 5, 1)
	b.AddWeightArrival(8, 6, 0.5)
	b.AddWeightArrival(8, 6, 0.25)
	b.AddWeightDeparture(8, 1, 4)
	arr, dep, wa, wd := b.Arrivals, b.Departures, b.WeightArrivals, b.WeightDepartures
	list := wa[6]
	b.Reset()
	if !b.IsZero() || len(b.Nodes()) != 0 {
		t.Fatalf("reset batch not zero: nodes %v", b.Nodes())
	}
	if !sameVec(b.Arrivals, arr) || !sameVec(b.Departures, dep) || !sameVec(b.WeightArrivals, wa) || !sameVec(b.WeightDepartures, wd) {
		t.Fatal("Reset replaced the batch's vectors")
	}
	if len(b.WeightArrivals[6]) != 0 || cap(b.WeightArrivals[6]) != cap(list) {
		t.Fatalf("node 6 weight list len %d cap %d, want 0 and %d", len(b.WeightArrivals[6]), cap(b.WeightArrivals[6]), cap(list))
	}
	b.AddWeightArrival(8, 2, 1)
	if got := b.Nodes(); !slices.Equal(got, []int{2}) {
		t.Fatalf("nodes after reuse %v, want [2]", got)
	}

	lit := &EventBatch{Arrivals: []int64{0, 4, 0, 1}, WeightArrivals: [][]float64{nil, nil, {0.5}, nil}}
	lit.Reset()
	if !lit.IsZero() || lit.WeightArrivals[2] != nil || len(lit.Arrivals) != 4 {
		t.Fatalf("literal not cleared: %+v", lit)
	}
	lit.AddDeparture(4, 3, 1)
	if !lit.indexed() || !slices.Equal(lit.Nodes(), []int{3}) {
		t.Fatalf("reset literal not indexed: nodes %v", lit.Nodes())
	}
}

// TestEventBatchDirectWrites: vectors written around the Add helpers —
// assigned after an Add call, or a literal later extended with Add —
// switch the batch to the scan, so every event is still reported.
func TestEventBatchDirectWrites(t *testing.T) {
	var b EventBatch
	b.AddArrival(6, 4, 1)
	b.Departures = []int64{0, 0, 3, 0, 0, 0}
	if got := b.Nodes(); !slices.Equal(got, []int{2, 4}) {
		t.Fatalf("assigned vector after Add: nodes %v, want [2 4]", got)
	}
	b.AddArrival(6, 0, 1) // mixed: the index must not take over
	if got := b.Nodes(); !slices.Equal(got, []int{0, 2, 4}) {
		t.Fatalf("Add on a mixed batch: nodes %v, want [0 2 4]", got)
	}
	b.Arrivals = slices.Clone(b.Arrivals)
	b.Arrivals[5] = 7
	if got := b.Nodes(); !slices.Equal(got, []int{0, 2, 4, 5}) {
		t.Fatalf("replaced vector: nodes %v, want [0 2 4 5]", got)
	}

	lit := &EventBatch{WeightDepartures: []int64{0, 2, 0, 0}}
	lit.AddWeightArrival(4, 3, 0.5)
	if got := lit.Nodes(); !slices.Equal(got, []int{1, 3}) {
		t.Fatalf("literal extended with Add: nodes %v, want [1 3]", got)
	}
	if lit.IsZero() {
		t.Fatal("mixed batch reported zero")
	}

	// Events that cancel, and zero-count adds, are not reported.
	var c EventBatch
	c.AddArrival(5, 1, 2)
	c.AddArrival(5, 1, -2)
	c.AddDeparture(5, 3, 0)
	if !c.IsZero() || len(c.Nodes()) != 0 {
		t.Fatalf("cancelled batch reports nodes %v", c.Nodes())
	}
}

func TestNodesIn(t *testing.T) {
	nodes := []int{1, 4, 5, 9, 12}
	for _, tc := range []struct {
		lo, hi int
		want   []int
	}{{0, 20, nodes}, {4, 9, []int{4, 5}}, {5, 6, []int{5}}, {6, 9, nil}, {13, 20, nil}, {0, 1, nil}} {
		if got := NodesIn(nodes, tc.lo, tc.hi); !slices.Equal(got, tc.want) {
			t.Errorf("NodesIn(%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}
