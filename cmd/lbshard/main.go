// Command lbshard runs one load-balancing instance across P shard
// processes: a coordinator drives the round protocol over a socket and
// P workers — each holding one shard of the state — execute the
// decide/commit phases locally, exchanging flows through length-prefixed
// binary frames. The produced RunResult is bit-identical to the
// in-process engines (-verify checks this in the same invocation).
//
// Coordinator with self-spawned workers over a unix socket:
//
//	lbshard -graph torus -n 64 -shards 4 -rounds 200 -socket /tmp/lb.sock -spawn -verify
//
// Separate worker processes (any mix of machines over TCP):
//
//	lbshard -worker -socket tcp:coord-host:9000 &
//	lbshard -worker -socket tcp:coord-host:9000 &
//	lbshard -graph ring -n 128 -shards 2 -rounds 500 -socket tcp:0.0.0.0:9000
//
// Deterministic checkpoints make the run kill-tolerant: with
// -checkpoint and -checkpoint-every the coordinator writes an atomic
// snapshot after every k-th round, and a crashed run restarted with
// -resume replays the remaining rounds to the bit-identical result:
//
//	lbshard -graph torus -n 64 -shards 2 -rounds 1000 -socket /tmp/lb.sock -spawn \
//	        -checkpoint /tmp/lb.ckpt -checkpoint-every 100
//	lbshard -graph torus -n 64 -shards 2 -rounds 1000 -socket /tmp/lb.sock -spawn \
//	        -checkpoint /tmp/lb.ckpt -resume -result /tmp/lb.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/instance"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/task"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbshard: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

type coordCfg struct {
	instance.Spec

	shards   int
	socket   string
	spawn    bool
	rounds   int
	trace    int
	ckptPath string
	ckptEach int
	resume   bool
	verify   bool
	result   string
	traceOut string
	statsOut string

	killAfter uint64 // forwarded to spawned worker 0 (testing)
}

func run() error {
	var (
		worker    = flag.Bool("worker", false, "run as a shard worker: connect to -socket and serve one shard")
		socket    = flag.String("socket", "", "unix socket path, or tcp:host:port")
		killAfter = flag.Uint64("killafter", 0, "testing: SIGKILL the worker (or, on the coordinator with -spawn, its first spawned worker) after completing round k")

		spec = instance.Bind(flag.CommandLine, instance.Defaults())

		shards   = flag.Int("shards", 2, "number of shard worker processes P")
		spawn    = flag.Bool("spawn", false, "spawn the P workers from this binary instead of waiting for external ones")
		rounds   = flag.Int("rounds", 100, "protocol rounds to run")
		trace    = flag.Int("trace", 0, "record a potential trace point every k rounds (0 = off)")
		ckptPath = flag.String("checkpoint", "", "checkpoint file path")
		ckptEach = flag.Int("checkpoint-every", 0, "write a checkpoint after every k-th round (0 = off; requires -checkpoint)")
		resume   = flag.Bool("resume", false, "resume from -checkpoint instead of starting fresh (instance comes from the file)")
		verify   = flag.Bool("verify", false, "also run the in-process shard engine and require a bit-identical result")
		result   = flag.String("result", "", "write the run result as JSON to this file")
		traceOut = flag.String("trace-out", "", "write coordinator phase spans as Chrome trace-event JSON to this file")
		statsOut = flag.String("stats-out", "", "write aggregated cluster telemetry (phases, barriers, transport, checkpoints) as JSON to this file")
	)
	flag.Parse()
	if *socket == "" {
		return fmt.Errorf("-socket is required")
	}
	if *worker {
		return runWorker(*socket, *killAfter)
	}
	return runCoordinator(coordCfg{
		Spec:   *spec,
		shards: *shards, socket: *socket, spawn: *spawn,
		rounds: *rounds, trace: *trace,
		ckptPath: *ckptPath, ckptEach: *ckptEach, resume: *resume,
		verify: *verify, result: *result, traceOut: *traceOut, statsOut: *statsOut,
		killAfter: *killAfter,
	})
}

// splitSocket maps the -socket syntax to a (network, address) pair.
func splitSocket(socket string) (network, addr string) {
	if a, ok := strings.CutPrefix(socket, "tcp:"); ok {
		return "tcp", a
	}
	return "unix", socket
}

// runWorker dials the coordinator (retrying while it comes up) and
// serves one shard until the session ends.
func runWorker(socket string, killAfter uint64) error {
	network, addr := splitSocket(socket)
	var conn net.Conn
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err = net.Dial(network, addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dial %s: %w", socket, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer conn.Close()
	var wo shard.WorkerOptions
	if killAfter > 0 {
		wo.AfterRound = func(r uint64) {
			if r >= killAfter {
				_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	return shard.RunWorkerOpts(conn, wo)
}

// clusterProtocol resolves -protocol to the weighted protocol the
// cluster ships to its workers. Only the paper's Algorithm 2 is
// registered on the wire, so every other name fails here, before any
// socket work.
func clusterProtocol(s instance.Spec) (core.WeightedFlatProtocol, error) {
	proto, err := s.WeightedProtocol()
	if err != nil {
		return nil, err
	}
	fp, ok := proto.(core.WeightedFlatProtocol)
	if !ok || !harness.WeightedEngineSupports(harness.EngineCluster, proto) {
		return nil, fmt.Errorf("protocol %s is not registered for cluster execution (want -protocol paper)", proto.Name())
	}
	return fp, nil
}

func runCoordinator(cfg coordCfg) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	proto, err := clusterProtocol(cfg.Spec)
	if err != nil {
		return err
	}
	var from *shard.Checkpoint
	if cfg.resume {
		if cfg.ckptPath == "" {
			return fmt.Errorf("-resume requires -checkpoint")
		}
		ck, err := shard.ReadCheckpoint(cfg.ckptPath)
		if err != nil {
			return err
		}
		from = ck
		cfg.shards = ck.Shards()
		if ck.Weighted() {
			cfg.Model = "weighted"
		} else {
			cfg.Model = "uniform"
		}
		fmt.Printf("resume:   %s at round %d (P=%d, model=%s)\n", cfg.ckptPath, ck.Round, ck.Shards(), cfg.Model)
	}
	if cfg.shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", cfg.shards)
	}
	// A fresh run starts from the flags' instance and -verify replays
	// it; either way it is built before the workers are spawned.
	var sys *core.System
	if from == nil || cfg.verify {
		if sys, err = cfg.System(); err != nil {
			return err
		}
	}

	network, addr := splitSocket(cfg.socket)
	if network == "unix" {
		_ = os.Remove(addr)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	advertise := cfg.socket
	if network == "tcp" {
		// Resolve :0 so spawned workers dial the actual port.
		advertise = "tcp:" + ln.Addr().String()
	}

	if cfg.spawn {
		self, err := os.Executable()
		if err != nil {
			return err
		}
		for i := 0; i < cfg.shards; i++ {
			args := []string{"-worker", "-socket", advertise}
			if cfg.killAfter > 0 && i == 0 {
				args = append(args, "-killafter", strconv.FormatUint(cfg.killAfter, 10))
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return fmt.Errorf("spawn worker %d: %w", i, err)
			}
			defer func() {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}()
		}
	}

	conns := make([]net.Conn, 0, cfg.shards)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	rws := make([]io.ReadWriter, 0, cfg.shards)
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		_ = d.SetDeadline(time.Now().Add(30 * time.Second))
	}
	for i := 0; i < cfg.shards; i++ {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("accept worker %d/%d: %w", i, cfg.shards, err)
		}
		conns = append(conns, c)
		rws = append(rws, c)
	}
	fmt.Printf("cluster:  P=%d workers connected on %s\n", cfg.shards, advertise)

	opts := core.RunOpts{MaxRounds: cfg.rounds, Seed: cfg.Seed, TraceEvery: cfg.trace}
	ckCfg := shard.CheckpointConfig{Path: cfg.ckptPath, Every: cfg.ckptEach}

	if cfg.Model == "weighted" {
		return driveWeighted(cfg, sys, proto, rws, from, opts, ckCfg)
	}
	return driveUniform(cfg, sys, rws, from, opts, ckCfg)
}

// driveUniform runs the uniform model from the checkpoint, or else from
// sys's initial counts; with -verify it replays sys's instance on the
// in-process shard engine.
func driveUniform(cfg coordCfg, sys *core.System, rws []io.ReadWriter, from *shard.Checkpoint, opts core.RunOpts, ckCfg shard.CheckpointConfig) error {
	var initial []int64
	var err error
	if sys != nil {
		if initial, err = cfg.Counts(sys); err != nil {
			return err
		}
	}
	var cl *shard.UniformCluster
	if from != nil {
		cl, err = from.ResumeUniform(rws)
	} else {
		cl, err = shard.NewUniformCluster(sys, core.Algorithm1{}, initial, rws, shard.Contiguous)
	}
	if err != nil {
		return err
	}
	defer cl.Close()
	rec := attachSpans(cfg, cl.SetSpans)
	res, err := cl.Drive(opts, ckCfg, from)
	if err != nil {
		return err
	}
	counts, err := cl.Counts()
	if err != nil {
		return err
	}
	fmt.Printf("run:      %d rounds, %d moves, %d trace points\n", res.Rounds, res.Moves, len(res.Trace))
	st := cl.Stats()
	printClusterStats(st)
	if err := writeTrace(cfg.traceOut, rec); err != nil {
		return err
	}
	if err := writeStats(cfg.statsOut, st); err != nil {
		return err
	}
	if cfg.verify {
		want, wantCounts, err := harness.RunUniformEngineOpts(harness.EngineShard, sys,
			core.Algorithm1{}, initial, nil, opts, harness.EngineOpts{Shards: cfg.shards})
		if err != nil {
			return fmt.Errorf("verify run: %w", err)
		}
		if !reflect.DeepEqual(res, want) || !reflect.DeepEqual(counts, wantCounts) {
			return fmt.Errorf("verify: cluster result differs from the in-process shard engine")
		}
		fmt.Println("verify: OK (bit-identical to the in-process shard engine)")
	}
	return writeResult(cfg.result, resultFile{
		Model: "uniform", Rounds: res.Rounds, Converged: res.Converged,
		Moves: res.Moves, Trace: res.Trace, Counts: counts,
	})
}

// driveWeighted is driveUniform's weighted counterpart.
func driveWeighted(cfg coordCfg, sys *core.System, proto core.WeightedFlatProtocol, rws []io.ReadWriter, from *shard.Checkpoint, opts core.RunOpts, ckCfg shard.CheckpointConfig) error {
	var perNode []task.Weights
	var err error
	if sys != nil {
		if perNode, err = cfg.Weighted(sys); err != nil {
			return err
		}
	}
	var cl *shard.WeightedCluster
	if from != nil {
		cl, err = from.ResumeWeighted(rws)
	} else {
		cl, err = shard.NewWeightedCluster(sys, proto, perNode, rws, shard.Contiguous)
	}
	if err != nil {
		return err
	}
	defer cl.Close()
	rec := attachSpans(cfg, cl.SetSpans)
	res, err := cl.Drive(opts, ckCfg, from)
	if err != nil {
		return err
	}
	st, err := cl.State()
	if err != nil {
		return err
	}
	fmt.Printf("run:      %d rounds, %d moves, %d trace points, W=%.1f\n",
		res.Rounds, res.Moves, len(res.Trace), st.TotalWeight())
	cst := cl.Stats()
	printClusterStats(cst)
	if err := writeTrace(cfg.traceOut, rec); err != nil {
		return err
	}
	if err := writeStats(cfg.statsOut, cst); err != nil {
		return err
	}
	if cfg.verify {
		want, wantState, err := harness.RunWeightedEngineOpts(harness.EngineShard, sys,
			proto, perNode, nil, opts, harness.EngineOpts{Shards: cfg.shards})
		if err != nil {
			return fmt.Errorf("verify run: %w", err)
		}
		if !reflect.DeepEqual(res, want) {
			return fmt.Errorf("verify: cluster result differs from the in-process shard engine")
		}
		if err := sameWeightedState(st, wantState); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		fmt.Println("verify: OK (bit-identical to the in-process shard engine)")
	}
	n := st.System().N()
	nw := make([]float64, n)
	for i := 0; i < n; i++ {
		nw[i] = st.NodeWeight(i)
	}
	return writeResult(cfg.result, resultFile{
		Model: "weighted", Rounds: res.Rounds, Converged: res.Converged,
		Moves: res.Moves, Trace: res.Trace,
		TotalWeight: st.TotalWeight(), TaskCount: int64(st.TaskCount()), NodeWeight: nw,
	})
}

// sameWeightedState demands exact equality of the weighted states: the
// cached per-node sums, the task multisets in order, and the totals.
func sameWeightedState(got, want *core.WeightedState) error {
	n := want.System().N()
	for i := 0; i < n; i++ {
		if got.NodeWeight(i) != want.NodeWeight(i) {
			return fmt.Errorf("node %d weight %g, want %g", i, got.NodeWeight(i), want.NodeWeight(i))
		}
		gw, ww := got.TaskWeights(i), want.TaskWeights(i)
		if !reflect.DeepEqual(gw, ww) {
			return fmt.Errorf("node %d task weights differ", i)
		}
	}
	if got.TotalWeight() != want.TotalWeight() || got.TaskCount() != want.TaskCount() {
		return fmt.Errorf("totals (W=%g, m=%d), want (W=%g, m=%d)",
			got.TotalWeight(), got.TaskCount(), want.TotalWeight(), want.TaskCount())
	}
	return nil
}

// attachSpans wires a span recorder into the cluster when -trace-out
// is set; returns nil (and records nothing) when it is off.
func attachSpans(cfg coordCfg, set func(*obs.SpanRecorder)) *obs.SpanRecorder {
	if cfg.traceOut == "" {
		return nil
	}
	rec := obs.NewSpanRecorder(0)
	set(rec)
	return rec
}

// writeTrace dumps the recorded coordinator spans as Chrome trace-event
// JSON (load into chrome://tracing or Perfetto).
func writeTrace(path string, rec *obs.SpanRecorder) error {
	if rec == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace:    %s (%d spans, %d dropped)\n", path, rec.Len(), rec.Dropped())
	return nil
}

// printClusterStats summarizes the round's aggregated telemetry.
func printClusterStats(st shard.ClusterStats) {
	fmt.Printf("stats:    coord %s\n", st.Coordinator)
	fmt.Printf("stats:    barrier=%v flows=%d tx=%dB rx=%dB checkpoints=%d (%v)\n",
		time.Duration(st.BarrierWaitNs), st.FlowsOut,
		st.Transport.BytesSent, st.Transport.BytesRecv,
		st.Checkpoints, time.Duration(st.CheckpointNs))
}

// writeStats dumps the aggregated cluster telemetry as JSON. Kept in
// its own file — wall-clock numbers would break the -result file's
// byte-identical-across-P property that the parity tests diff.
func writeStats(path string, st shard.ClusterStats) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultFile is the -result JSON shape. Go's float64 JSON encoding
// round-trips exactly, so two bit-identical runs produce byte-identical
// files — the parity tests compare them with a plain diff. Wall-clock
// telemetry goes to -stats-out, never here.
type resultFile struct {
	Model     string
	Rounds    int
	Converged bool
	Moves     int64
	Trace     []core.TracePoint `json:",omitempty"`

	Counts []int64 `json:",omitempty"`

	TotalWeight float64   `json:",omitempty"`
	TaskCount   int64     `json:",omitempty"`
	NodeWeight  []float64 `json:",omitempty"`
}

func writeResult(path string, r resultFile) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
