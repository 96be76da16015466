package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/transport"
	"repro/internal/workload"
)

// clusterParams describes the cluster job: Algorithm 1 (uniform tasks)
// on a torus with two speed classes, run by the coordinator and P
// in-process workers over net.Pipe for a fixed number of rounds, with a
// fixed number of arrivals and completion requests injected before
// every round. The cost of a round falls as the protocol moves tasks
// towards the fast nodes, so a run repeats the same fixed-length job
// from a fresh cluster rather than running one cluster for as long as
// the time allows: every run then measures the same stretch of the
// trajectory.
type clusterParams struct {
	Side         int     `json:"torus_side"`
	TasksPerNode int     `json:"tasks_per_node"`
	FastFrac     float64 `json:"fast_fraction"`
	FastSpeed    float64 `json:"fast_speed"`
	Shards       int     `json:"shards"`
	Arrivals     int     `json:"arrivals_per_round"`
	Completions  int     `json:"completions_per_round"`
	Rounds       int     `json:"rounds_per_job"`
}

func defaultCluster() clusterParams {
	return clusterParams{
		Side: 512, TasksPerNode: 64, FastFrac: 0.25, FastSpeed: 2, Shards: 2,
		Arrivals: 4096, Completions: 4096, Rounds: 50,
	}
}

type clusterInstance struct {
	c     *shard.UniformCluster
	n     int
	tasks int64
}

func buildCluster(p clusterParams, seed uint64) (*clusterInstance, error) {
	csr, err := graph.TorusCSR(p.Side, p.Side)
	if err != nil {
		return nil, err
	}
	g := csr.Graph()
	speeds, err := machine.TwoClass(g.N(), p.FastFrac, p.FastSpeed)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(spectral.Lambda2Torus(p.Side, p.Side)))
	if err != nil {
		return nil, err
	}
	m := int64(p.TasksPerNode) * int64(g.N())
	counts, err := workload.UniformRandom(g.N(), m, rng.New(seed).Split(1))
	if err != nil {
		return nil, err
	}
	c, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: p.Shards})
	if err != nil {
		return nil, err
	}
	return &clusterInstance{c: c, n: g.N(), tasks: m}, nil
}

// eventGen draws each round's arrivals and completion requests at
// seeded random nodes. It reuses one dense batch and clears only the
// entries the previous round touched, so generation costs O(events).
type eventGen struct {
	s       *rng.Stream
	batch   core.EventBatch
	touched []int
}

func newEventGen(seed uint64, n int) *eventGen {
	return &eventGen{
		s:     rng.New(seed).Split(3),
		batch: core.EventBatch{Arrivals: make([]int64, n), Departures: make([]int64, n)},
	}
}

func (g *eventGen) next(arrivals, completions int) *core.EventBatch {
	for _, i := range g.touched {
		g.batch.Arrivals[i], g.batch.Departures[i] = 0, 0
	}
	g.touched = g.touched[:0]
	n := len(g.batch.Arrivals)
	for k := 0; k < arrivals; k++ {
		i := g.s.Intn(n)
		g.batch.Arrivals[i]++
		g.touched = append(g.touched, i)
	}
	for k := 0; k < completions; k++ {
		i := g.s.Intn(n)
		g.batch.Departures[i]++
		g.touched = append(g.touched, i)
	}
	return &g.batch
}

// checkCluster is the cluster workload's output check: the tasks on the
// workers add up to the initial tasks plus the arrivals minus the
// completions the ledger reports.
func checkCluster(counts []int64, initial, arrived, departed int64) error {
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if want := initial + arrived - departed; sum != want {
		return fmt.Errorf("workers hold %d tasks, want %d = %d + %d arrived - %d departed", sum, want, initial, arrived, departed)
	}
	return nil
}

// clusterPass is one job on a fresh cluster.
type clusterPass struct {
	wall              time.Duration
	roundDur          []time.Duration // ApplyEvents start to Step end
	arrived, departed int64
	moves             int64
	wire              transport.ConnStats // coordinator traffic of the job
	stats             shard.ClusterStats
}

// driveCluster runs one job of p.Rounds rounds; rec (nil: untraced)
// records a span around every cluster call.
func driveCluster(inst *clusterInstance, p clusterParams, seed uint64, rec *obs.SpanRecorder) (clusterPass, error) {
	var out clusterPass
	gen := newEventGen(seed, inst.n)
	base := rng.New(seed)
	wire0 := inst.c.Stats().Transport
	t0 := time.Now()
	for r := 1; r <= p.Rounds; r++ {
		batch := gen.next(p.Arrivals, p.Completions)
		a0 := time.Now()
		led, err := inst.c.ApplyEvents(batch)
		a1 := time.Now()
		if err != nil {
			return out, fmt.Errorf("round %d: apply: %w", r, err)
		}
		moves, err := inst.c.Step(uint64(r), base)
		if err != nil {
			return out, fmt.Errorf("round %d: step: %w", r, err)
		}
		s1 := time.Now()
		rec.Span(0, tidCluster, "cluster.ApplyEvents", a0, a1.Sub(a0))
		rec.Span(0, tidCluster, "cluster.Step", a1, s1.Sub(a1))
		out.roundDur = append(out.roundDur, s1.Sub(a0))
		out.arrived += led.Arrived
		out.departed += led.Departed
		out.moves += moves
		if rec != nil {
			st := time.Now()
			_ = inst.c.Stats()
			rec.Span(0, tidCluster, "cluster.Stats", st, time.Since(st))
		}
	}
	out.wall = time.Since(t0)
	rec.Span(0, tidBench, "cluster.run", t0, out.wall)
	out.stats = inst.c.Stats()
	w := out.stats.Transport
	out.wire = transport.ConnStats{
		FramesSent: w.FramesSent - wire0.FramesSent, BytesSent: w.BytesSent - wire0.BytesSent,
		FramesRecv: w.FramesRecv - wire0.FramesRecv, BytesRecv: w.BytesRecv - wire0.BytesRecv,
	}
	return out, nil
}

// finishCluster checks one pass into res and closes the cluster.
func finishCluster(res *result, inst *clusterInstance, p clusterParams, pass clusterPass, passErr error) {
	defer inst.c.Close()
	ops := int64(p.Rounds) * int64(p.Arrivals+p.Completions)
	res.Attempted += max(ops, 1)
	if passErr != nil {
		res.fail("%v", passErr)
		return
	}
	if want := int64(p.Rounds) * int64(p.Arrivals); pass.arrived != want {
		res.Failed += want - pass.arrived
		res.Failures = append(res.Failures, fmt.Sprintf("ledger admitted %d arrivals, want %d", pass.arrived, want))
	}
	counts, err := inst.c.Counts()
	if err != nil {
		res.fail("gather counts: %v", err)
		return
	}
	if err := checkCluster(counts, inst.tasks, pass.arrived, pass.departed); err != nil {
		res.fail("%v", err)
	}
}

func runCluster(cfg runConfig, p clusterParams) (*result, error) {
	res := newResult("cluster", p)
	if cfg.Trace {
		return res, traceCluster(cfg, p, res)
	}
	var rs roundStats
	var jobs int
	var first clusterPass
	err := jobLoop(res, cfg.Duration,
		func() (*clusterInstance, error) { return buildCluster(p, cfg.Seed) },
		func(inst *clusterInstance) { inst.c.Close() },
		func(inst *clusterInstance) (time.Duration, bool) {
			pass, err := driveCluster(inst, p, cfg.Seed, nil)
			finishCluster(res, inst, p, pass, err)
			if err != nil {
				return 0, false
			}
			if jobs == 0 {
				first = pass
			} else if pass.moves != first.moves || pass.wire != first.wire {
				res.fail("repeat job moved %d tasks over %d bytes, first moved %d over %d",
					pass.moves, pass.wire.BytesSent+pass.wire.BytesRecv, first.moves, first.wire.BytesSent+first.wire.BytesRecv)
			}
			jobs++
			rs.add(p.Rounds, pass.wall, ms(pass.roundDur))
			return pass.wall, true
		})
	if err != nil {
		return nil, err
	}
	rs.set(res)
	res.set("fail_ratio", float64(res.Failed)/float64(res.Attempted), 0)
	return res, nil
}

// traceCluster runs the job once untraced and once traced on fresh
// clusters, and derives the per-layer metrics from the traced spans and
// the cluster's own telemetry.
func traceCluster(cfg runConfig, p clusterParams, res *result) error {
	inst, err := buildCluster(p, cfg.Seed)
	if err != nil {
		return err
	}
	plain, err := driveCluster(inst, p, cfg.Seed, nil)
	finishCluster(res, inst, p, plain, err)
	if err != nil {
		return nil
	}
	if inst, err = buildCluster(p, cfg.Seed); err != nil {
		return err
	}
	runtime.GC()
	rec := obs.NewSpanRecorder(spanCap)
	rt0 := readRuntime()
	pass, err := driveCluster(inst, p, cfg.Seed, rec)
	rt1 := readRuntime()
	if err != nil {
		finishCluster(res, inst, p, pass, err)
		return nil
	}
	if pass.moves != plain.moves || pass.wire != plain.wire {
		res.fail("traced job moved %d tasks over %d frames, untraced %d over %d",
			pass.moves, pass.wire.FramesSent+pass.wire.FramesRecv, plain.moves, plain.wire.FramesSent+plain.wire.FramesRecv)
	}
	tot, path, err := writeTrace(rec, cfg.OutDir, fmt.Sprintf("trace-cluster-seed%d.json", cfg.Seed))
	if err != nil {
		inst.c.Close()
		return err
	}
	res.TraceFile = path
	n := int64(p.Rounds)
	apply, step := tot.dur("cluster.ApplyEvents"), tot.dur("cluster.Step")
	unacc := tot.dur("cluster.run") - apply - step
	st := pass.stats
	workers := time.Duration(len(st.Workers))
	var wDecide, wCommit time.Duration
	for _, w := range st.Workers {
		wDecide += time.Duration(w.DecideNs)
		wCommit += time.Duration(w.CommitNs)
	}
	res.set("cluster.step_ms", perRound(step, n), 0)
	res.set("cluster.apply_ms", perRound(apply, n), 0)
	res.set("cluster.coord_snapshot_ms", perRound(st.Coordinator.Snapshot, st.Coordinator.Rounds), 0)
	res.set("cluster.coord_decide_ms", perRound(st.Coordinator.Decide, st.Coordinator.Rounds), 0)
	res.set("cluster.coord_commit_ms", perRound(st.Coordinator.Commit, st.Coordinator.Rounds), 0)
	res.set("cluster.worker_decide_ms", perRound(wDecide/workers, n), 0)
	res.set("cluster.worker_commit_ms", perRound(wCommit/workers, n), 0)
	res.set("cluster.barrier_wait_ms", perRound(time.Duration(st.BarrierWaitNs)/workers, n), 0)
	res.set("cluster.flows_per_round", float64(st.FlowsOut)/float64(n), 0)
	res.set("cluster.unaccounted_ms", perRound(unacc, n), 0)
	res.set("transport.bytes_per_round", float64(pass.wire.BytesSent+pass.wire.BytesRecv)/float64(n), 0)
	res.set("transport.frames_per_round", float64(pass.wire.FramesSent+pass.wire.FramesRecv)/float64(n), 0)
	setRuntime(res, rt0, rt1, n)
	res.set("bench.trace_overhead_ratio", percentile(ms(pass.roundDur), 0.5)/percentile(ms(plain.roundDur), 0.5), 0)
	res.Ledger = []ledgerEntry{
		{"wall (cluster.run)", perRound(tot.dur("cluster.run"), n)},
		{"cluster.ApplyEvents", perRound(apply, n)},
		{"cluster.Step", perRound(step, n)},
		{"unaccounted", perRound(unacc, n)},
	}
	finishCluster(res, inst, p, pass, nil)
	return nil
}
