// Engine-parity acceptance tests: every engine, driven through the
// shared core.Drive loop, must reproduce the sequential reference
// bit-for-bit — identical RunResult (rounds, convergence, moves),
// identical trace floats, identical final state — on every Table-1
// graph class. The tests live in an external package so they can reuse
// the class definitions from internal/experiments, which itself builds
// on harness.
package harness_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/workload"
)

// buildUniform constructs a Table-1 instance with two-class speeds and
// an adversarial two-corner start.
func buildUniform(t *testing.T, class experiments.GraphClass, n int) (*core.System, []int64) {
	t.Helper()
	g, err := class.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	actualN := g.N()
	speeds, err := machine.TwoClass(actualN, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(class.Lambda2(g)))
	if err != nil {
		t.Fatal(err)
	}
	counts, err := workload.TwoCorners(actualN, int64(50*actualN), 0, actualN-1)
	if err != nil {
		t.Fatal(err)
	}
	return sys, counts
}

// sameRun compares two RunResults for exact equality, traces included.
func sameRun(t *testing.T, engine string, want, got core.RunResult) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Converged != want.Converged || got.Moves != want.Moves {
		t.Fatalf("%s: RunResult (rounds=%d conv=%v moves=%d), want (rounds=%d conv=%v moves=%d)",
			engine, got.Rounds, got.Converged, got.Moves, want.Rounds, want.Converged, want.Moves)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: %d trace points, want %d", engine, len(got.Trace), len(want.Trace))
	}
	for k := range want.Trace {
		if got.Trace[k] != want.Trace[k] {
			t.Fatalf("%s: trace[%d] = %+v, want %+v", engine, k, got.Trace[k], want.Trace[k])
		}
	}
}

// parallelEngines lists the engines checked against the seq reference:
// shard and cluster, restricted to those that can run the weighted
// protocol proto (nil for the uniform model, which every engine runs).
func parallelEngines(proto core.WeightedProtocol) []string {
	var out []string
	for _, e := range []string{harness.EngineShard, harness.EngineCluster} {
		if proto == nil || harness.WeightedEngineSupports(e, proto) {
			out = append(out, e)
		}
	}
	return out
}

// TestUniformEngineParity drives the sequential engine, the shard
// engine and the cluster through the unified driver on every Table-1
// class, with a stop condition, tracing, and a CheckEvery that
// does not divide TraceEvery, and demands bit-identical results.
func TestUniformEngineParity(t *testing.T) {
	for _, class := range experiments.Table1Classes() {
		class := class
		t.Run(class.Key, func(t *testing.T) {
			t.Parallel()
			sys, counts := buildUniform(t, class, 16)
			stop := core.StopAtPsi0Below(4 * sys.PsiCritical())
			opts := core.RunOpts{MaxRounds: 200_000, Seed: 11, TraceEvery: 7, CheckEvery: 3}

			ref, refCounts, err := harness.RunUniformEngine(harness.EngineSeq, sys, core.Algorithm1{}, counts, stop, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Converged || ref.Rounds == 0 {
				t.Fatalf("reference run did not converge meaningfully: %+v", ref)
			}
			if last := ref.Trace[len(ref.Trace)-1].Round; last != ref.Rounds {
				t.Fatalf("reference trace ends at round %d, want %d", last, ref.Rounds)
			}
			for _, engine := range parallelEngines(nil) {
				res, gotCounts, err := harness.RunUniformEngine(engine, sys, core.Algorithm1{}, counts, stop, opts)
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				sameRun(t, engine, ref, res)
				for i := range refCounts {
					if gotCounts[i] != refCounts[i] {
						t.Fatalf("%s: node %d count %d, want %d", engine, i, gotCounts[i], refCounts[i])
					}
				}
			}
		})
	}
}

// TestUniformEngineParityMaxRounds checks the no-stop path (fixed round
// budget) where the final round must appear in every engine's trace.
func TestUniformEngineParityMaxRounds(t *testing.T) {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	sys, counts := buildUniform(t, class, 16)
	opts := core.RunOpts{MaxRounds: 45, Seed: 4, TraceEvery: 10}
	ref, _, err := harness.RunUniformEngine(harness.EngineSeq, sys, core.Algorithm1{}, counts, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if last := ref.Trace[len(ref.Trace)-1].Round; last != 45 {
		t.Fatalf("final round missing from trace: last point at %d", last)
	}
	for _, engine := range parallelEngines(nil) {
		res, _, err := harness.RunUniformEngine(engine, sys, core.Algorithm1{}, counts, nil, opts)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		sameRun(t, engine, ref, res)
	}
}

// TestWeightedEngineParity drives Algorithm 2 sequentially, on the
// weighted shard engine and on the weighted cluster through the unified
// driver on every
// Table-1 class and demands identical results and final states.
func TestWeightedEngineParity(t *testing.T) {
	for _, class := range experiments.Table1Classes() {
		class := class
		t.Run(class.Key, func(t *testing.T) {
			t.Parallel()
			g, err := class.Build(16)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			sys, err := core.NewSystem(g, machine.Uniform(n), core.WithLambda2(class.Lambda2(g)))
			if err != nil {
				t.Fatal(err)
			}
			weights, err := task.RandomWeights(60*n, 0.1, 1, rng.New(9))
			if err != nil {
				t.Fatal(err)
			}
			perNode, err := workload.WeightedAllOnOne(n, weights, 0)
			if err != nil {
				t.Fatal(err)
			}
			stop := core.StopAtWeightedPsi0Below(4 * sys.PsiCriticalWeighted())
			opts := core.RunOpts{MaxRounds: 300_000, Seed: 21, TraceEvery: 5, CheckEvery: 2}

			ref, refState, err := harness.RunWeightedEngine(harness.EngineSeq, sys, core.Algorithm2{}, perNode, stop, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, engine := range parallelEngines(core.Algorithm2{}) {
				res, gotState, err := harness.RunWeightedEngine(engine, sys, core.Algorithm2{}, perNode, stop, opts)
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				sameRun(t, engine, ref, res)
				for i := 0; i < n; i++ {
					if gotState.NodeWeight(i) != refState.NodeWeight(i) {
						t.Fatalf("%s: node %d: weight %g, want %g", engine, i, gotState.NodeWeight(i), refState.NodeWeight(i))
					}
					gw, rw := gotState.TaskWeights(i), refState.TaskWeights(i)
					if len(gw) != len(rw) {
						t.Fatalf("%s: node %d: %d tasks, want %d", engine, i, len(gw), len(rw))
					}
					for k := range gw {
						if gw[k] != rw[k] {
							t.Fatalf("%s: node %d task %d: %g, want %g", engine, i, k, gw[k], rw[k])
						}
					}
				}
			}
		})
	}
}

// dynamicTestOpts is the shared dynamic scenario of the parity tests:
// continuous arrivals and speed-proportional completions, a burst every
// 40 rounds, and alternating node churn every 60 rounds — every event
// kind at once.
func dynamicTestOpts(seed uint64) harness.DynamicOpts {
	return harness.DynamicOpts{
		MaxRounds: 200,
		Seed:      seed,
		Workload: dynamics.Workload{
			Seed:        seed + 1000,
			ArrivalRate: 12,
			ServiceRate: 0.5,
			BurstEvery:  40,
			BurstSize:   150,
		},
		Churn: dynamics.AlternatingChurn(200, 60),
	}
}

// sameDynamic compares two DynamicResults for exact equality — ledger,
// merged trace floats, final counts, metrics.
func sameDynamic(t *testing.T, engine string, want, got harness.DynamicResult) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Epochs != want.Epochs || got.Moves != want.Moves ||
		got.FinalN != want.FinalN {
		t.Fatalf("%s: (rounds=%d epochs=%d moves=%d n=%d), want (rounds=%d epochs=%d moves=%d n=%d)",
			engine, got.Rounds, got.Epochs, got.Moves, got.FinalN,
			want.Rounds, want.Epochs, want.Moves, want.FinalN)
	}
	if got.Ledger != want.Ledger {
		t.Fatalf("%s: ledger %+v, want %+v", engine, got.Ledger, want.Ledger)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: %d trace points, want %d", engine, len(got.Trace), len(want.Trace))
	}
	for k := range want.Trace {
		if got.Trace[k] != want.Trace[k] {
			t.Fatalf("%s: trace[%d] = %+v, want %+v", engine, k, got.Trace[k], want.Trace[k])
		}
	}
	if got.Metrics != want.Metrics {
		t.Fatalf("%s: metrics %+v, want %+v", engine, got.Metrics, want.Metrics)
	}
	for i := range want.FinalCounts {
		if got.FinalCounts[i] != want.FinalCounts[i] {
			t.Fatalf("%s: final count[%d] = %d, want %d", engine, i, got.FinalCounts[i], want.FinalCounts[i])
		}
	}
}

// TestUniformDynamicEngineParity is the dynamic-workload acceptance
// test: a run with simultaneous arrivals, departures, bursts and node
// churn must be bit-identical across seq, shard and cluster on every
// Table-1 class, and must conserve tasks net of the event ledger.
func TestUniformDynamicEngineParity(t *testing.T) {
	for _, class := range experiments.Table1Classes() {
		class := class
		t.Run(class.Key, func(t *testing.T) {
			t.Parallel()
			sys, counts := buildUniform(t, class, 16)
			initial := int64(0)
			for _, c := range counts {
				initial += c
			}
			opts := dynamicTestOpts(31)
			ref, err := harness.RunUniformDynamic(harness.EngineSeq, sys, core.Algorithm1{}, counts, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Rounds != opts.MaxRounds || ref.Epochs < 2 {
				t.Fatalf("reference run too short: %+v", ref)
			}
			if ref.Ledger.Arrived == 0 || ref.Ledger.Departed == 0 {
				t.Fatalf("scenario generated no traffic: %+v", ref.Ledger)
			}
			final := int64(0)
			for _, c := range ref.FinalCounts {
				final += c
			}
			if final != initial+ref.Ledger.Arrived-ref.Ledger.Departed {
				t.Fatalf("conservation: final %d, initial %d, ledger %+v", final, initial, ref.Ledger)
			}
			if ref.Metrics.TimeAvgPsi0 <= 0 || ref.Metrics.Bursts == 0 {
				t.Fatalf("metrics not populated: %+v", ref.Metrics)
			}
			for _, engine := range parallelEngines(nil) {
				res, err := harness.RunUniformDynamic(engine, sys, core.Algorithm1{}, counts, opts)
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				sameDynamic(t, engine, ref, res)
			}
		})
	}
}

// TestWeightedDynamicEngineParity: the weighted dynamic path (arrivals
// with random weights, completions, churn) must match across seq, shard
// and cluster, including the exact task multisets.
func TestWeightedDynamicEngineParity(t *testing.T) {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	g, err := class.Build(16)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	sys, err := core.NewSystem(g, machine.Uniform(n), core.WithLambda2(class.Lambda2(g)))
	if err != nil {
		t.Fatal(err)
	}
	weights, err := task.RandomWeights(30*n, 0.1, 1, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := workload.WeightedAllOnOne(n, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := dynamicTestOpts(77)
	ref, err := harness.RunWeightedDynamic(harness.EngineSeq, sys, core.Algorithm2{}, perNode, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Ledger.ArrivedTasks == 0 || ref.Ledger.DepartedTasks == 0 {
		t.Fatalf("scenario generated no weighted traffic: %+v", ref.Ledger)
	}
	if got, want := int64(ref.FinalState.TaskCount()), int64(30*n)+ref.Ledger.ArrivedTasks-ref.Ledger.DepartedTasks; got != want {
		t.Fatalf("conservation: %d tasks, want %d", got, want)
	}
	for _, engine := range parallelEngines(core.Algorithm2{}) {
		res, err := harness.RunWeightedDynamic(engine, sys, core.Algorithm2{}, perNode, opts)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		sameDynamic(t, engine, ref, res)
		for i := 0; i < ref.FinalState.System().N(); i++ {
			gw, rw := res.FinalState.TaskWeights(i), ref.FinalState.TaskWeights(i)
			if len(gw) != len(rw) {
				t.Fatalf("%s: node %d: %d tasks, want %d", engine, i, len(gw), len(rw))
			}
			for k := range gw {
				if gw[k] != rw[k] {
					t.Fatalf("%s: node %d task %d: %g, want %g", engine, i, k, gw[k], rw[k])
				}
			}
		}
	}
}

// TestDynamicOptsValidation covers the dynamic runner's rejections.
func TestDynamicOptsValidation(t *testing.T) {
	class, err := experiments.ClassByKey("ring")
	if err != nil {
		t.Fatal(err)
	}
	sys, counts := buildUniform(t, class, 8)
	if _, err := harness.RunUniformDynamic(harness.EngineSeq, sys, core.Algorithm1{}, counts,
		harness.DynamicOpts{MaxRounds: 0}); err == nil {
		t.Error("MaxRounds=0 accepted")
	}
	if _, err := harness.RunUniformDynamic(harness.EngineSeq, sys, core.Algorithm1{}, counts,
		harness.DynamicOpts{MaxRounds: 5, Workload: dynamics.Workload{ArrivalRate: -2}}); err == nil {
		t.Error("invalid workload accepted")
	}
	if _, err := harness.RunUniformDynamic("warp", sys, core.Algorithm1{}, counts,
		harness.DynamicOpts{MaxRounds: 5}); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestEngineDispatchErrors covers the dispatcher's rejection paths.
func TestEngineDispatchErrors(t *testing.T) {
	class, err := experiments.ClassByKey("ring")
	if err != nil {
		t.Fatal(err)
	}
	sys, counts := buildUniform(t, class, 8)
	opts := core.RunOpts{MaxRounds: 10, Seed: 1}
	if _, _, err := harness.RunUniformEngine("warp", sys, core.Algorithm1{}, counts, nil, opts); err == nil {
		t.Error("unknown uniform engine accepted")
	}
	perNode := make([]task.Weights, sys.N())
	if _, _, err := harness.RunWeightedEngine("warp", sys, core.Algorithm2{}, perNode, nil, opts); err == nil {
		t.Error("unknown weighted engine accepted")
	}
	// "forkjoin" and "actor" are unknown engine names; the error lists
	// the valid ones.
	for _, engine := range []string{"forkjoin", "actor"} {
		_, _, err := harness.RunUniformEngine(engine, sys, core.Algorithm1{}, counts, nil, opts)
		if err == nil || !strings.Contains(err.Error(), "seq|shard|cluster") {
			t.Errorf("uniform engine %q: err %v, want an unknown-engine error listing seq|shard|cluster", engine, err)
		}
		_, _, err = harness.RunWeightedEngine(engine, sys, core.Algorithm2{}, perNode, nil, opts)
		if err == nil || !strings.Contains(err.Error(), "seq|shard|cluster") {
			t.Errorf("weighted engine %q: err %v, want an unknown-engine error listing seq|shard|cluster", engine, err)
		}
	}
	// The baseline protocol does not decide against flat state, so the
	// shard engine must reject it rather than mis-run it.
	if _, _, err := harness.RunWeightedEngine(harness.EngineShard, sys, core.BaselineWeighted{}, perNode, nil, opts); err == nil {
		t.Error("shard accepted a non-flat weighted protocol")
	}
	// ErrMaxRounds passes through with the final counts intact.
	never := func(*core.UniformState) bool { return false }
	_, got, err := harness.RunUniformEngine(harness.EngineShard, sys, core.Algorithm1{}, counts, never, opts)
	if !errors.Is(err, core.ErrMaxRounds) {
		t.Fatalf("want ErrMaxRounds, got %v", err)
	}
	var total int64
	for _, c := range got {
		total += c
	}
	if want := int64(50 * sys.N()); total != want {
		t.Errorf("counts after ErrMaxRounds sum to %d, want %d", total, want)
	}
}

// TestWeightedEngineParityBlockRegime drives the multi-block decide
// path cross-engine: a corner start with 2.5·DecideBlock tasks on one
// node makes every round sample several full blocks plus a remainder,
// with block gates deep in the BTPE regime (n·p well above the
// mode-walk threshold). Results, traces and final task multisets must
// be bit-identical across seq, shard and cluster — the property that
// licenses regenerating goldens from any engine.
func TestWeightedEngineParityBlockRegime(t *testing.T) {
	class, err := experiments.ClassByKey("ring")
	if err != nil {
		t.Fatal(err)
	}
	g, err := class.Build(16)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	sys, err := core.NewSystem(g, machine.Uniform(n), core.WithLambda2(class.Lambda2(g)))
	if err != nil {
		t.Fatal(err)
	}
	cnt := 2*core.DecideBlock + core.DecideBlock/2
	weights, err := task.RandomWeights(cnt, 0.1, 1, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := workload.WeightedAllOnOne(n, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.RunOpts{MaxRounds: 40, Seed: 31, TraceEvery: 5, CheckEvery: 4}
	ref, refState, err := harness.RunWeightedEngine(harness.EngineSeq, sys, core.Algorithm2{}, perNode, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Moves == 0 {
		t.Fatal("block-regime scenario produced no migrations")
	}
	for _, engine := range parallelEngines(core.Algorithm2{}) {
		res, gotState, err := harness.RunWeightedEngine(engine, sys, core.Algorithm2{}, perNode, nil, opts)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		sameRun(t, engine, ref, res)
		for i := 0; i < n; i++ {
			if gotState.NodeWeight(i) != refState.NodeWeight(i) {
				t.Fatalf("%s: node %d: weight %g, want %g", engine, i, gotState.NodeWeight(i), refState.NodeWeight(i))
			}
			gw, rw := gotState.TaskWeights(i), refState.TaskWeights(i)
			if len(gw) != len(rw) {
				t.Fatalf("%s: node %d: %d tasks, want %d", engine, i, len(gw), len(rw))
			}
			for k := range gw {
				if gw[k] != rw[k] {
					t.Fatalf("%s: node %d task %d: %g, want %g", engine, i, k, gw[k], rw[k])
				}
			}
		}
	}
}

// TestWeightedDynamicEngineParityBlockRegime is the dynamic counterpart:
// the same multi-block corner start run through the full event scenario
// (arrivals, completions, bursts, alternating churn) must stay
// bit-identical across seq, shard and cluster.
func TestWeightedDynamicEngineParityBlockRegime(t *testing.T) {
	class, err := experiments.ClassByKey("ring")
	if err != nil {
		t.Fatal(err)
	}
	g, err := class.Build(16)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	sys, err := core.NewSystem(g, machine.Uniform(n), core.WithLambda2(class.Lambda2(g)))
	if err != nil {
		t.Fatal(err)
	}
	cnt := 2*core.DecideBlock + core.DecideBlock/2
	weights, err := task.RandomWeights(cnt, 0.1, 1, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	perNode, err := workload.WeightedAllOnOne(n, weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := dynamicTestOpts(91)
	opts.MaxRounds = 120
	ref, err := harness.RunWeightedDynamic(harness.EngineSeq, sys, core.Algorithm2{}, perNode, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Ledger.ArrivedTasks == 0 || ref.Ledger.DepartedTasks == 0 {
		t.Fatalf("scenario generated no weighted traffic: %+v", ref.Ledger)
	}
	for _, engine := range parallelEngines(core.Algorithm2{}) {
		res, err := harness.RunWeightedDynamic(engine, sys, core.Algorithm2{}, perNode, opts)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		sameDynamic(t, engine, ref, res)
		for i := 0; i < ref.FinalState.System().N(); i++ {
			gw, rw := res.FinalState.TaskWeights(i), ref.FinalState.TaskWeights(i)
			if len(gw) != len(rw) {
				t.Fatalf("%s: node %d: %d tasks, want %d", engine, i, len(gw), len(rw))
			}
			for k := range gw {
				if gw[k] != rw[k] {
					t.Fatalf("%s: node %d task %d: %g, want %g", engine, i, k, gw[k], rw[k])
				}
			}
		}
	}
}
