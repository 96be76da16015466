package harness

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/shard"
	"repro/internal/task"
)

// TestEngineLists pins the dispatcher's engine menus: both task models
// run on exactly the sequential reference, the shard engine and the
// cluster.
func TestEngineLists(t *testing.T) {
	want := []string{EngineSeq, EngineShard, EngineCluster}
	for name, got := range map[string][]string{
		"UniformEngines":  UniformEngines(),
		"WeightedEngines": WeightedEngines(),
	} {
		if len(got) != len(want) {
			t.Fatalf("%s() = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s()[%d] = %q, want %q", name, i, got[i], want[i])
			}
		}
	}
}

// TestWeightedEngineSupports pins the capability matrix the experiments
// use for engine fallback: seq runs anything, shard needs a
// flat-decidable protocol, cluster one registered on the wire.
func TestWeightedEngineSupports(t *testing.T) {
	cases := []struct {
		engine string
		proto  core.WeightedProtocol
		want   bool
	}{
		{"", core.BaselineWeighted{}, true},
		{EngineSeq, core.BaselineWeighted{}, true},
		{EngineShard, core.Algorithm2{}, true},
		{EngineShard, core.BaselineWeighted{}, false},
		{EngineShard, core.Algorithm2Literal{}, false},
		{EngineCluster, core.Algorithm2{}, true},
		{EngineCluster, core.BaselineWeighted{}, false},
		{EngineCluster, core.Algorithm2Literal{}, false},
		{"warp", core.Algorithm2{}, false},
		{"forkjoin", core.Algorithm2{}, false},
	}
	for _, c := range cases {
		if got := WeightedEngineSupports(c.engine, c.proto); got != c.want {
			t.Errorf("WeightedEngineSupports(%q, %s) = %v, want %v", c.engine, c.proto.Name(), got, c.want)
		}
	}
}

// engineCfg projects the comparable configuration fields of an
// EngineOpts; the struct itself stopped being comparable when it grew
// the Probe callback.
type engineCfg struct {
	Workers, Shards int
	Strategy        string
}

func cfgOf(eo EngineOpts) engineCfg {
	return engineCfg{Workers: eo.Workers, Shards: eo.Shards, Strategy: eo.Strategy}
}

// TestEngineOptsResolved pins that Resolved reports what actually runs:
// zero values become the constructor defaults, shard counts clamp to
// [1, n], workers cap at the shard count, and the default strategy is
// spelled out.
func TestEngineOptsResolved(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name   string
		eo     EngineOpts
		engine string
		n      int
		want   EngineOpts
	}{
		{"seq-defaults", EngineOpts{}, EngineSeq, 100, EngineOpts{Workers: 1}},
		{"seq-ignores-flags", EngineOpts{Workers: 9, Shards: 4}, EngineSeq, 100, EngineOpts{Workers: 1}},
		{"shard-defaults", EngineOpts{}, EngineShard, 1000,
			EngineOpts{Workers: procs, Shards: procs, Strategy: "contiguous"}},
		{"shard-explicit", EngineOpts{Workers: 2, Shards: 5, Strategy: "degree"}, EngineShard, 1000,
			EngineOpts{Workers: 2, Shards: 5, Strategy: "degree"}},
		{"shard-clamp-p-to-n", EngineOpts{Workers: 4, Shards: 1000}, EngineShard, 8,
			EngineOpts{Workers: 4, Shards: 8, Strategy: "contiguous"}},
		{"shard-workers-capped-at-p", EngineOpts{Workers: 8, Shards: 2}, EngineShard, 100,
			EngineOpts{Workers: 2, Shards: 2, Strategy: "contiguous"}},
		{"cluster-defaults", EngineOpts{}, EngineCluster, 1000,
			EngineOpts{Workers: procs, Shards: procs, Strategy: "contiguous"}},
		{"cluster-one-worker-per-shard", EngineOpts{Workers: 8, Shards: 3}, EngineCluster, 100,
			EngineOpts{Workers: 3, Shards: 3, Strategy: "contiguous"}},
		{"cluster-clamp-p-to-n", EngineOpts{Shards: 1000}, EngineCluster, 8,
			EngineOpts{Workers: 8, Shards: 8, Strategy: "contiguous"}},
	}
	for _, c := range cases {
		if got := c.eo.Resolved(c.engine, c.n); cfgOf(got) != cfgOf(c.want) {
			t.Errorf("%s: Resolved(%q, %d) = %+v, want %+v", c.name, c.engine, c.n, got, c.want)
		}
	}
}

// TestResolvedMatchesShardConstructors ties Resolved to the actual
// engine constructors — the single place the defaulting/clamping rules
// live. If shard.New or NewPartition ever change a default, this test
// fails rather than letting the lbsim banner silently report
// parameters that differ from what ran.
func TestResolvedMatchesShardConstructors(t *testing.T) {
	g, err := graph.Ring(24)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(24), core.WithLambda2(0.1))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 24)
	perNode := make([]task.Weights, 24)
	for _, eo := range []EngineOpts{
		{},
		{Workers: 3},
		{Shards: 7},
		{Workers: 8, Shards: 2},
		{Shards: 1000, Workers: 4},
		{Shards: 5, Strategy: "degree"},
	} {
		want := eo.Resolved(EngineShard, 24)
		eng, err := shard.New(sys, core.Algorithm1{}, counts, shard.Options{
			Shards: eo.Shards, Workers: eo.Workers, Strategy: shard.Strategy(eo.Strategy),
		})
		if err != nil {
			t.Fatalf("%+v: %v", eo, err)
		}
		got := EngineOpts{Workers: eng.Workers(), Shards: eng.Partition().P(), Strategy: string(eng.Partition().Strategy())}
		eng.Close()
		if cfgOf(got) != cfgOf(want) {
			t.Errorf("uniform engine %+v: ran %+v, Resolved says %+v", eo, got, want)
		}
		weng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{
			Shards: eo.Shards, Workers: eo.Workers, Strategy: shard.Strategy(eo.Strategy),
		})
		if err != nil {
			t.Fatalf("%+v: %v", eo, err)
		}
		got = EngineOpts{Workers: weng.Workers(), Shards: weng.Partition().P(), Strategy: string(weng.Partition().Strategy())}
		weng.Close()
		if cfgOf(got) != cfgOf(want) {
			t.Errorf("weighted engine %+v: ran %+v, Resolved says %+v", eo, got, want)
		}
	}
}
