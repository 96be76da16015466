// Event-path tests: the touched-node index and the in-place weighted
// apply must keep every engine bit-identical to the sequential
// reference whichever way a batch was built, and event application
// must cost O(events), not O(n) — pinned by allocation, on the shard
// engine and on a cluster worker's event round.
package shard_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/task"
)

// weightedBatchForms draws one weighted batch over n nodes as a dense
// literal and, identically, through the Add helpers. Arrival lists are
// heavy-tailed so some nodes outgrow their slot or private segment, and
// some departure requests exceed any queue, emptying the node.
func weightedBatchForms(s *rng.Stream, n int) (lit, added *core.EventBatch) {
	lit = &core.EventBatch{WeightArrivals: make([][]float64, n), WeightDepartures: make([]int64, n)}
	added = &core.EventBatch{}
	for e := 1 + s.Intn(2*n); e > 0; e-- {
		i := s.Intn(n)
		switch s.Intn(3) {
		case 0:
			k := 1 + s.Intn(3)
			if s.Intn(8) == 0 {
				k += 40
			}
			for ; k > 0; k-- {
				w := 0.05 + 0.95*s.Float64()
				lit.WeightArrivals[i] = append(lit.WeightArrivals[i], w)
				added.AddWeightArrival(n, i, w)
			}
		case 1:
			lit.WeightDepartures[i]++
			added.AddWeightDeparture(n, i, 1)
		default:
			lit.WeightDepartures[i] += 1 << 20
			added.AddWeightDeparture(n, i, 1<<20)
		}
	}
	return lit, added
}

// TestWeightedShardEventForms: over rounds of ApplyEvents-then-Step,
// the shard engine fed literal batches, the shard engine fed the same
// batches built with the Add helpers, and the sequential state must
// agree exactly — ledgers, moves and full State() — for P = 1, 3 and
// 5. The batches privatize nodes, regrow private segments and empty
// nodes, which the arena statistics confirm.
func TestWeightedShardEventForms(t *testing.T) {
	class, err := experiments.ClassByKey("ring")
	if err != nil {
		t.Fatal(err)
	}
	sys, perNode := buildWeighted(t, class, 24, 4)
	n := sys.N()
	for _, p := range []int{1, 3, 5} {
		st, err := core.NewWeightedState(sys, perNode)
		if err != nil {
			t.Fatal(err)
		}
		var engs [2]*shard.WeightedEngine
		for f := range engs {
			if engs[f], err = shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: p}); err != nil {
				t.Fatal(err)
			}
			defer engs[f].Close()
		}
		s := rng.New(uint64(70 + p))
		base := rng.New(5)
		for r := uint64(1); r <= 40; r++ {
			lit, added := weightedBatchForms(s, n)
			want, err := st.ApplyEvents(lit)
			if err != nil {
				t.Fatal(err)
			}
			wantMoves := int64(core.Algorithm2{}.Step(st, r, base))
			for f, b := range []*core.EventBatch{lit, added} {
				got, err := engs[f].ApplyEvents(b)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("P=%d round %d form %d: ledger %+v, want %+v", p, r, f, got, want)
				}
				moves, err := engs[f].Step(r, base)
				if err != nil {
					t.Fatal(err)
				}
				if moves != wantMoves {
					t.Fatalf("P=%d round %d form %d: %d moves, want %d", p, r, f, moves, wantMoves)
				}
				gotSt, err := engs[f].State()
				if err != nil {
					t.Fatal(err)
				}
				sameWeightedState(t, "event forms", st, gotSt)
			}
		}
		if a := engs[1].Arena(); a.CurBytes == 0 || a.DeadFloats == 0 {
			t.Fatalf("P=%d: arena %+v: batches never privatized or regrew a node", p, a)
		}
	}
}

// TestWeightedApplyEventsAllocs pins the O(events) cost of weighted
// event application: one cycle of two 2,048-event batches (each undoes
// the other's task counts) allocates no more objects or bytes at
// n = 2¹⁶ than at n = 2¹², both on the first cycle — which privatizes
// every node that receives an arrival — and in the steady state.
func TestWeightedApplyEventsAllocs(t *testing.T) {
	type cost struct{ firstAllocs, firstBytes, allocs, bytes uint64 }
	measure := func(n int) cost {
		g, err := graph.Ring(n)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(g, machine.Uniform(n), core.WithLambda2(0.5))
		if err != nil {
			t.Fatal(err)
		}
		perNode := make([]task.Weights, n)
		for i := range perNode {
			perNode[i] = task.Weights{0.5, 0.5, 0.5, 0.5}
		}
		eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		// b1 adds a task at every even node below 2048 and drains one
		// from every odd node; b2 reverses it.
		var b1, b2 core.EventBatch
		for k := 0; k < 1024; k++ {
			b1.AddWeightArrival(n, 2*k, 0.25)
			b1.AddWeightDeparture(n, 2*k+1, 1)
			b2.AddWeightDeparture(n, 2*k, 1)
			b2.AddWeightArrival(n, 2*k+1, 0.25)
		}
		cycle := func() {
			for _, b := range []*core.EventBatch{&b1, &b2} {
				if _, err := eng.ApplyEvents(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		var m0, m1, m2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		cycle()
		runtime.ReadMemStats(&m1)
		const runs = 20
		allocs := testing.AllocsPerRun(runs, cycle)
		runtime.ReadMemStats(&m2)
		return cost{
			firstAllocs: m1.Mallocs - m0.Mallocs,
			firstBytes:  m1.TotalAlloc - m0.TotalAlloc,
			allocs:      uint64(allocs),
			bytes:       (m2.TotalAlloc - m1.TotalAlloc) / (runs + 1),
		}
	}
	small, large := measure(1<<12), measure(1<<16)
	if large.firstAllocs > small.firstAllocs || large.firstBytes > small.firstBytes {
		t.Fatalf("first event cycle grew with n: %d allocs / %d B at n=2^12, %d allocs / %d B at n=2^16",
			small.firstAllocs, small.firstBytes, large.firstAllocs, large.firstBytes)
	}
	if large.allocs > small.allocs || large.bytes > small.bytes {
		t.Fatalf("steady event cycle grew with n: %d allocs / %d B at n=2^12, %d allocs / %d B at n=2^16",
			small.allocs, small.bytes, large.allocs, large.bytes)
	}
	t.Logf("first cycle %d allocs / %d B, steady %d allocs / %d B per cycle", large.firstAllocs, large.firstBytes, large.allocs, large.bytes)
}

// TestClusterApplyEventsThenStep drives uniform and weighted clusters
// through the standalone event frame followed by Step — the split path
// the cluster benchmark and hand-driven callers take, which core.Drive
// never takes for an EventStepper — and demands ledgers, moves and
// states bit-identical to the sequential engine every round, with
// batches alternately built as literals and with the Add helpers.
func TestClusterApplyEventsThenStep(t *testing.T) {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("uniform", func(t *testing.T) {
		sys, counts := buildInstance(t, class, 16)
		n := sys.N()
		for _, p := range clusterCounts {
			st, err := core.NewUniformState(sys, append([]int64(nil), counts...))
			if err != nil {
				t.Fatal(err)
			}
			cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			s, base := rng.New(uint64(90+p)), rng.New(4)
			for r := uint64(1); r <= 30; r++ {
				batch := &core.EventBatch{}
				if r%2 == 0 {
					batch = &core.EventBatch{Arrivals: make([]int64, n), Departures: make([]int64, n)}
				}
				for e := s.Intn(3 * n); e > 0; e-- {
					i, k := s.Intn(n), int64(1+s.Intn(4))
					if s.Intn(2) == 0 {
						if r%2 == 0 {
							batch.Arrivals[i] += k
						} else {
							batch.AddArrival(n, i, k)
						}
					} else if r%2 == 0 {
						batch.Departures[i] += 4 * k
					} else {
						batch.AddDeparture(n, i, 4*k)
					}
				}
				want, err := st.ApplyEvents(batch)
				if err != nil {
					t.Fatal(err)
				}
				wantMoves := core.Algorithm1{}.Step(st, r, base)
				got, err := cl.ApplyEvents(batch)
				if err != nil {
					t.Fatal(err)
				}
				moves, err := cl.Step(r, base)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || moves != wantMoves {
					t.Fatalf("P=%d round %d: ledger %+v moves %d, want %+v moves %d", p, r, got, moves, want, wantMoves)
				}
			}
			gotCounts, err := cl.Counts()
			if err != nil {
				t.Fatal(err)
			}
			sameCounts(t, "uniform apply-then-step", st.Counts(), gotCounts)
			cl.Close()
		}
	})
	t.Run("weighted", func(t *testing.T) {
		sys, perNode := buildWeighted(t, class, 16, 8)
		n := sys.N()
		for _, p := range clusterCounts {
			st, err := core.NewWeightedState(sys, perNode)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := shard.StartLocalWeightedCluster(sys, core.Algorithm2{}, perNode, shard.Options{Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			s, base := rng.New(uint64(95+p)), rng.New(6)
			for r := uint64(1); r <= 30; r++ {
				lit, added := weightedBatchForms(s, n)
				batch := lit
				if r%2 == 1 {
					batch = added
				}
				want, err := st.ApplyEvents(batch)
				if err != nil {
					t.Fatal(err)
				}
				wantMoves := int64(core.Algorithm2{}.Step(st, r, base))
				got, err := cl.ApplyEvents(batch)
				if err != nil {
					t.Fatal(err)
				}
				moves, err := cl.Step(r, base)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || moves != wantMoves {
					t.Fatalf("P=%d round %d: ledger %+v moves %d, want %+v moves %d", p, r, got, moves, want, wantMoves)
				}
			}
			gotSt, err := cl.State()
			if err != nil {
				t.Fatal(err)
			}
			sameWeightedState(t, "weighted apply-then-step", st, gotSt)
			cl.Close()
		}
	})
}

// TestClusterEventRoundAllocs is TestClusterRoundBytes for memory: a
// uniform cluster's event rounds — the standalone event frame plus a
// round, and the fused round — must allocate the same at n = 2¹⁶ as at
// n = 2¹² when the batches carry the same events (at the same relative
// positions, so every worker sees the same count). Each batch adds and
// removes one task per touched node, so every round stays move-free and
// exactly repeatable. A worker that inflated its event slice to n-long
// vectors would allocate 16n bytes per worker per event round.
func TestClusterEventRoundAllocs(t *testing.T) {
	perRound := func(n int) (allocs, bytes uint64) {
		t.Helper()
		g, err := graph.Ring(n)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := core.NewSystem(g, machine.Uniform(n), core.WithLambda2(0.5))
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = 4
		}
		cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var batch core.EventBatch
		for k := 0; k < 256; k++ {
			i := k * (n / 256)
			batch.AddArrival(n, i, 1)
			batch.AddDeparture(n, i, 1)
		}
		base := rng.New(9)
		round := func(r uint64) {
			if r%2 == 0 {
				if _, err := cl.ApplyEvents(&batch); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Step(r, base); err != nil {
					t.Fatal(err)
				}
				return
			}
			if _, _, err := cl.StepEvents(r, base, &batch); err != nil {
				t.Fatal(err)
			}
		}
		for r := uint64(1); r <= 4; r++ {
			round(r)
		}
		const rounds = 16
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for r := uint64(5); r < 5+rounds; r++ {
			round(r)
		}
		runtime.ReadMemStats(&m1)
		return (m1.Mallocs - m0.Mallocs) / rounds, (m1.TotalAlloc - m0.TotalAlloc) / rounds
	}
	smallA, smallB := perRound(1 << 12)
	largeA, largeB := perRound(1 << 16)
	// A little slack absorbs runtime bookkeeping (the in-process pipes'
	// goroutines, GC); an n-long vector at n = 2¹⁶ is 512 KiB.
	if largeA > smallA+smallA/4+8 || largeB > smallB+smallB/4+4096 {
		t.Fatalf("event rounds grew with n: %d allocs / %d B per round at n=2^12, %d allocs / %d B at n=2^16",
			smallA, smallB, largeA, largeB)
	}
	t.Logf("per event round: %d allocs / %d B at n=2^12, %d allocs / %d B at n=2^16", smallA, smallB, largeA, largeB)
}
