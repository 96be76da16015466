package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/task"
	"repro/internal/workload"
)

// convergeParams describes the converge instance: Algorithm 2 on a
// hypercube with two speed classes, every task starting on node 0, run
// under core.Drive until an ε-approximate Nash equilibrium.
type convergeParams struct {
	Dim          int     `json:"hypercube_dim"`
	TasksPerNode int     `json:"tasks_per_node"`
	WeightLo     float64 `json:"weight_lo"`
	WeightHi     float64 `json:"weight_hi"`
	FastFrac     float64 `json:"fast_fraction"`
	FastSpeed    float64 `json:"fast_speed"`
	Eps          float64 `json:"eps"`
	CheckEvery   int     `json:"check_every"`
	Shards       int     `json:"shards"`
	MaxRounds    int     `json:"max_rounds"`
}

func defaultConverge() convergeParams {
	return convergeParams{
		Dim: 16, TasksPerNode: 16, WeightLo: 0.1, WeightHi: 1,
		FastFrac: 0.25, FastSpeed: 2,
		Eps: 0.25, CheckEvery: 10, Shards: 2, MaxRounds: 100000,
	}
}

// convergeInstance is a built engine plus the task count and total
// weight its final state must conserve.
type convergeInstance struct {
	eng    *shard.WeightedEngine
	tasks  int
	weight float64
}

func buildConverge(p convergeParams, seed uint64) (*convergeInstance, error) {
	csr, err := graph.HypercubeCSR(p.Dim)
	if err != nil {
		return nil, err
	}
	g := csr.Graph()
	speeds, err := machine.TwoClass(g.N(), p.FastFrac, p.FastSpeed)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(spectral.Lambda2Hypercube(p.Dim)))
	if err != nil {
		return nil, err
	}
	ws, err := task.RandomWeights(p.TasksPerNode*g.N(), p.WeightLo, p.WeightHi, rng.New(seed).Split(1))
	if err != nil {
		return nil, err
	}
	perNode, err := workload.WeightedAllOnOne(g.N(), ws, 0)
	if err != nil {
		return nil, err
	}
	eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: p.Shards})
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, w := range ws {
		total += w
	}
	return &convergeInstance{eng: eng, tasks: len(ws), weight: total}, nil
}

// checkConverge is the converge workload's output check: the final
// state is an ε-approximate Nash equilibrium, and the task count and
// total weight equal the initial ones.
func checkConverge(st *core.WeightedState, eps float64, tasks int, weight float64) error {
	if !core.IsWeightedApproxNash(st, eps) {
		return fmt.Errorf("final state is not a %g-approximate Nash equilibrium", eps)
	}
	if st.TaskCount() != tasks {
		return fmt.Errorf("task count %d, want %d", st.TaskCount(), tasks)
	}
	sum := 0.0
	for i := 0; i < st.System().N(); i++ {
		for _, w := range st.TaskWeights(i) {
			sum += w
		}
	}
	if math.Abs(sum-weight) > 1e-9*weight {
		return fmt.Errorf("total weight %.12g, want %.12g", sum, weight)
	}
	return nil
}

// convergeRun is one drive from the initial state to the stop.
type convergeRun struct {
	res  core.RunResult
	wall time.Duration
	te   *timedWeighted
}

// driveConverge runs inst to the ε-NE stop, with rec (nil: untraced)
// recording a span around every engine call and stop evaluation.
func driveConverge(inst *convergeInstance, p convergeParams, seed uint64, rec *obs.SpanRecorder) (convergeRun, error) {
	run := convergeRun{te: &timedWeighted{WeightedEngine: inst.eng, rec: rec}}
	stop := func(st *core.WeightedState) bool {
		t0 := time.Now()
		ok := core.IsWeightedApproxNash(st, p.Eps)
		rec.Span(0, tidCore, "core.stop", t0, time.Since(t0))
		return ok
	}
	t0 := time.Now()
	res, err := core.Drive[*core.WeightedState](run.te, stop, core.RunOpts{
		MaxRounds: p.MaxRounds, Seed: seed, CheckEvery: p.CheckEvery,
	})
	run.wall = time.Since(t0)
	rec.Span(0, tidCore, "core.Drive", t0, run.wall)
	run.res = res
	return run, err
}

// finishConverge checks one drive's outcome into res and closes the
// engine.
func finishConverge(res *result, inst *convergeInstance, run convergeRun, driveErr error, p convergeParams) {
	defer inst.eng.Close()
	res.Attempted++
	if driveErr != nil {
		res.fail("drive: %v", driveErr)
		return
	}
	st, err := inst.eng.State()
	if err != nil {
		res.fail("final state: %v", err)
		return
	}
	if err := checkConverge(st, p.Eps, inst.tasks, inst.weight); err != nil {
		res.fail("%v", err)
	}
}

func runConverge(cfg runConfig, p convergeParams) (*result, error) {
	res := newResult("converge", p)
	if cfg.Trace {
		return res, traceConverge(cfg, p, res)
	}
	var walls []float64
	var rs roundStats
	var first core.RunResult
	err := jobLoop(res, cfg.Duration,
		func() (*convergeInstance, error) { return buildConverge(p, cfg.Seed) },
		func(inst *convergeInstance) { inst.eng.Close() },
		func(inst *convergeInstance) (time.Duration, bool) {
			run, err := driveConverge(inst, p, cfg.Seed, nil)
			finishConverge(res, inst, run, err, p)
			if err != nil {
				return 0, false
			}
			if len(walls) == 0 {
				first = run.res
			} else if run.res.Rounds != first.Rounds || run.res.Moves != first.Moves {
				res.fail("repeat drive took %d rounds/%d moves, first took %d/%d", run.res.Rounds, run.res.Moves, first.Rounds, first.Moves)
			}
			walls = append(walls, run.wall.Seconds())
			rs.add(run.res.Rounds, run.wall, ms(run.te.rounds))
			return run.wall, true
		})
	if err != nil {
		return nil, err
	}
	res.set("converge_s", median(walls), len(walls))
	rs.set(res)
	res.set("fail_ratio", float64(res.Failed)/float64(res.Attempted), 0)
	return res, nil
}

// traceConverge drives the instance once untraced and once traced, and
// derives the per-layer metrics from the traced drive's spans.
func traceConverge(cfg runConfig, p convergeParams, res *result) error {
	inst, err := buildConverge(p, cfg.Seed)
	if err != nil {
		return err
	}
	runtime.GC()
	plain, err := driveConverge(inst, p, cfg.Seed, nil)
	finishConverge(res, inst, plain, err, p)
	if err != nil {
		return nil
	}
	if inst, err = buildConverge(p, cfg.Seed); err != nil {
		return err
	}
	runtime.GC()
	rec := obs.NewSpanRecorder(spanCap)
	rt0 := readRuntime()
	run, err := driveConverge(inst, p, cfg.Seed, rec)
	rt1 := readRuntime()
	if err != nil {
		finishConverge(res, inst, run, err, p)
		return nil
	}
	if run.res.Rounds != plain.res.Rounds || run.res.Moves != plain.res.Moves {
		res.fail("traced drive took %d rounds/%d moves, untraced %d/%d", run.res.Rounds, run.res.Moves, plain.res.Rounds, plain.res.Moves)
	}
	tot, path, err := writeTrace(rec, cfg.OutDir, fmt.Sprintf("trace-converge-seed%d.json", cfg.Seed))
	if err != nil {
		inst.eng.Close()
		return err
	}
	res.TraceFile = path
	rounds := int64(run.res.Rounds)
	step, state, stop := tot.dur("shard.Step"), tot.dur("core.State"), tot.dur("core.stop")
	unacc := tot.dur("core.Drive") - step - state - stop
	res.set("core.rounds", float64(rounds), 0)
	res.set("core.moves", float64(run.res.Moves), 0)
	res.set("core.state_ms", perRound(state, rounds), 0)
	res.set("core.stop_ms", perRound(stop, rounds), 0)
	res.set("core.unaccounted_ms", perRound(unacc, rounds), 0)
	shardLayer(res, inst.eng, tot, rounds)
	res.set("shard.moves_per_round", float64(run.res.Moves)/float64(rounds), 0)
	setRuntime(res, rt0, rt1, rounds)
	res.set("bench.trace_overhead_ratio", run.wall.Seconds()/plain.wall.Seconds(), 0)
	res.Ledger = []ledgerEntry{
		{"wall (core.Drive)", perRound(tot.dur("core.Drive"), rounds)},
		{"shard.Step", perRound(step, rounds)},
		{"core.State", perRound(state, rounds)},
		{"core.stop", perRound(stop, rounds)},
		{"unaccounted", perRound(unacc, rounds)},
	}
	finishConverge(res, inst, run, nil, p)
	return nil
}
