package core

import (
	"errors"
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
