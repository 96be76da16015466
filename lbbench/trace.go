package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard"
)

// Thread ids of the Chrome trace: one row per layer the benchmark calls
// into, plus one for the benchmark's own windows.
const (
	tidBench = iota
	tidCore
	tidShard
	tidServe
	tidCluster
)

// spanCap bounds the recorder. The traced passes record a handful of
// spans per round and per read, far below it; a dropped span fails the
// run because the ledger would no longer add up.
const spanCap = 1 << 20

// spanTotals is a Chrome trace read back and summed by span name.
type spanTotals map[string]spanTotal

type spanTotal struct {
	N     int
	Total time.Duration
}

func (t spanTotals) dur(name string) time.Duration { return t[name].Total }

// writeTrace writes the recorder as a Chrome trace file, reads the file
// back and sums the spans by name: the per-layer numbers of a traced
// pass come from the trace as written.
func writeTrace(rec *obs.SpanRecorder, dir, name string) (spanTotals, string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, "", err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return nil, "", err
	}
	if err := f.Close(); err != nil {
		return nil, "", err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		Dropped int64 `json:"droppedSpans"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		return nil, "", fmt.Errorf("read back %s: %w", path, err)
	}
	if tr.Dropped > 0 {
		return nil, "", fmt.Errorf("trace %s dropped %d spans", path, tr.Dropped)
	}
	tot := spanTotals{}
	for _, e := range tr.TraceEvents {
		t := tot[e.Name]
		t.N++
		t.Total += time.Duration(e.Dur * float64(time.Microsecond))
		tot[e.Name] = t
	}
	return tot, path, nil
}

// timedWeighted wraps a shard.WeightedEngine at its public surface. It
// keeps every round's wall time (for the end-to-end round percentiles)
// and, when rec is non-nil, records one span per call. The embedded
// engine still provides Phases, so serve's phase accounting sees the
// same engine.
//
// Only one goroutine drives an engine (core.Drive or the serve loop),
// and the owner reads rounds after that goroutine has stopped.
type timedWeighted struct {
	*shard.WeightedEngine
	rec *obs.SpanRecorder

	rounds []time.Duration // ApplyEvents start (if any) to Step end

	applyStart, applyEnd time.Time
	pending              bool // an ApplyEvents preceded the next Step
}

func (t *timedWeighted) ApplyEvents(b *core.EventBatch) (core.EventLedger, error) {
	t0 := time.Now()
	led, err := t.WeightedEngine.ApplyEvents(b)
	t1 := time.Now()
	t.rec.Span(0, tidShard, "shard.ApplyEvents", t0, t1.Sub(t0))
	t.applyStart, t.applyEnd, t.pending = t0, t1, true
	return led, err
}

func (t *timedWeighted) Step(r uint64, base *rng.Stream) (int64, error) {
	t0 := time.Now()
	moves, err := t.WeightedEngine.Step(r, base)
	t1 := time.Now()
	t.rec.Span(0, tidShard, "shard.Step", t0, t1.Sub(t0))
	start := t0
	if t.pending {
		// serve applies the round's batch, journals it, then steps.
		t.rec.Span(0, tidServe, "serve.journal", t.applyEnd, t0.Sub(t.applyEnd))
		start, t.pending = t.applyStart, false
	}
	t.rounds = append(t.rounds, t1.Sub(start))
	return moves, err
}

func (t *timedWeighted) State() (*core.WeightedState, error) {
	t0 := time.Now()
	st, err := t.WeightedEngine.State()
	t.rec.Span(0, tidCore, "core.State", t0, time.Since(t0))
	return st, err
}

// shardLayer records the shard.* metrics every weighted-engine workload
// shares, from the engine's own counters and the traced step/apply
// spans.
func shardLayer(res *result, eng *shard.WeightedEngine, tot spanTotals, rounds int64) {
	ph := eng.Phases()
	res.set("shard.step_ms", perRound(tot.dur("shard.Step"), rounds), 0)
	res.set("shard.snapshot_ms", perRound(ph.Snapshot, ph.Rounds), 0)
	res.set("shard.decide_ms", perRound(ph.Decide, ph.Rounds), 0)
	res.set("shard.commit_ms", perRound(ph.Commit, ph.Rounds), 0)
	if rounds > 0 {
		res.set("shard.cross_flows_per_round", float64(eng.CrossFlows())/float64(rounds), 0)
	}
	if n := tot["shard.ApplyEvents"].N; n > 0 {
		res.set("shard.apply_ms", msOf(tot.dur("shard.ApplyEvents"))/float64(n), 0)
	} else {
		res.set("shard.apply_ms", 0, 0)
	}
	a := eng.Arena()
	live := 1.0
	if held := a.CurBytes + a.RetiredBytes; held > 0 {
		live = 1 - float64(8*a.DeadFloats)/float64(held)
	}
	res.set("shard.arena_live_ratio", live, 0)
}

// setupRepeats is how many instances an untraced run builds before its
// first job; setup_s is the median over these and every later build.
const setupRepeats = 3

// jobLoop runs a workload's jobs for about d. It times setupRepeats
// builds, keeping the last, then runs one job per fresh instance and
// starts another while it is expected to end within half a job of d.
// job runs on and closes its instance; it returns the job's wall time,
// or false to stop the loop. jobLoop records setup_s and mem_peak_mb,
// the median of the jobs' peaks; the builds between jobs are left out.
func jobLoop[I any](res *result, d time.Duration, build func() (I, error), discard func(I), job func(I) (time.Duration, bool)) error {
	var setups, peaks []float64
	timed := func() (I, error) {
		runtime.GC()
		t0 := time.Now()
		inst, err := build()
		setups = append(setups, time.Since(t0).Seconds())
		return inst, err
	}
	var inst I
	for k := 0; k < setupRepeats; k++ {
		if k > 0 {
			discard(inst)
		}
		var err error
		if inst, err = timed(); err != nil {
			return err
		}
	}
	begin := time.Now()
	for {
		runtime.GC()
		mem := startMemSampler(10 * time.Millisecond)
		wall, ok := job(inst)
		peaks = append(peaks, mem.Stop())
		if !ok || time.Since(begin)+wall/2 > d {
			break
		}
		var err error
		if inst, err = timed(); err != nil {
			return err
		}
	}
	res.set("setup_s", median(setups), len(setups))
	res.set("mem_peak_mb", median(peaks), len(peaks))
	return nil
}
