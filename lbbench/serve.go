package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/task"
	"repro/internal/workload"
)

// serveParams describes the serve instance: Algorithm 2 on a ring with
// two speed classes and tasks placed in proportion to speed, behind
// serve.New with lbd's defaults, fed by one open-loop pacer and read
// through the /load placement hint.
type serveParams struct {
	LogN         int     `json:"ring_log2_n"`
	TasksPerNode int     `json:"tasks_per_node"`
	WeightLo     float64 `json:"weight_lo"`
	WeightHi     float64 `json:"weight_hi"`
	FastFrac     float64 `json:"fast_fraction"`
	FastSpeed    float64 `json:"fast_speed"`
	Shards       int     `json:"shards"`
	BatchSize    int     `json:"batch_size"`
	MaxWaitMs    float64 `json:"max_wait_ms"`
	Rate         int     `json:"ops_per_s"`
	ReadsPerSec  float64 `json:"reads_per_s"`
	ReadK        int     `json:"read_k"`
	JobSeconds   float64 `json:"job_seconds"`
}

func (p serveParams) jobDuration() time.Duration {
	return time.Duration(p.JobSeconds * float64(time.Second))
}

func defaultServe() serveParams {
	return serveParams{
		LogN: 18, TasksPerNode: 16, WeightLo: 0.1, WeightHi: 1,
		FastFrac: 0.25, FastSpeed: 2, Shards: 2,
		BatchSize: 4096, MaxWaitMs: 2, Rate: 40000, ReadsPerSec: 2, ReadK: 8,
		JobSeconds: 3,
	}
}

// buildServeEngine builds the serve workload's initial engine and
// returns it with its task count.
func buildServeEngine(p serveParams, seed uint64) (*shard.WeightedEngine, int64, error) {
	csr, err := graph.RingCSR(1 << p.LogN)
	if err != nil {
		return nil, 0, err
	}
	g := csr.Graph()
	n := g.N()
	speeds, err := machine.TwoClass(n, p.FastFrac, p.FastSpeed)
	if err != nil {
		return nil, 0, err
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(spectral.Lambda2Ring(n)))
	if err != nil {
		return nil, 0, err
	}
	ws, err := task.RandomWeights(p.TasksPerNode*n, p.WeightLo, p.WeightHi, rng.New(seed).Split(1))
	if err != nil {
		return nil, 0, err
	}
	perNode, err := workload.WeightedProportional(speeds, ws)
	if err != nil {
		return nil, 0, err
	}
	eng, err := shard.NewWeighted(sys, core.Algorithm2{}, perNode, shard.Options{Shards: p.Shards})
	if err != nil {
		return nil, 0, err
	}
	return eng, int64(len(ws)), nil
}

// serveInstance is a running server around a timed engine.
type serveInstance struct {
	eng     *shard.WeightedEngine
	te      *timedWeighted
	srv     *serve.Server[*core.WeightedState]
	handler http.Handler
	probe   *probeLog
	n       int
	tasks   int64
}

func buildServe(p serveParams, seed uint64, rec *obs.SpanRecorder) (*serveInstance, error) {
	eng, tasks, err := buildServeEngine(p, seed)
	if err != nil {
		return nil, err
	}
	inst := &serveInstance{eng: eng, te: &timedWeighted{WeightedEngine: eng, rec: rec}, tasks: tasks, n: 1 << p.LogN}
	inst.srv, err = serve.New[*core.WeightedState](inst.te, serve.Config{
		N: inst.n, Weighted: true, BatchSize: p.BatchSize,
		MaxWait: time.Duration(p.MaxWaitMs * float64(time.Millisecond)), Seed: seed,
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	prober := serve.Prober{NodeLoad: eng.NodeLoad}
	if rec != nil {
		inst.probe = &probeLog{eng: eng, last: inst.n - 1, rec: rec}
		prober.NodeLoad = inst.probe.nodeLoad
	}
	inst.handler = serve.NewHandler(inst.srv, prober)
	return inst, nil
}

func (inst *serveInstance) close() {
	_, _ = inst.srv.Stop()
	inst.eng.Close()
}

// probeLog wraps the Prober.NodeLoad the /load handler calls inside
// Server.Do. A k-least-loaded read probes nodes 0..n-1 in order, so the
// span from the first probe's start to the last probe's end is the
// read's quiescent section on the round loop. Only the round loop calls
// nodeLoad; the reader goroutine reads the fields after its request
// returned, which Server.Do orders after the calls.
type probeLog struct {
	eng    *shard.WeightedEngine
	last   int
	rec    *obs.SpanRecorder
	calls  int64
	start  time.Time
	probes int
}

func (p *probeLog) nodeLoad(i int) (float64, error) {
	p.calls++
	if i == 0 {
		p.start = time.Now()
	}
	l, err := p.eng.NodeLoad(i)
	if i == p.last {
		p.probes++
		p.rec.Span(0, tidServe, "serve.read_probe", p.start, time.Since(p.start))
	}
	return l, err
}

// opRec is one submission of the open-loop pacer, with its times
// relative to the pass's start. It holds no pointers, so the garbage
// collector need not scan the pass's hundreds of thousands of records.
type opRec struct {
	due, sent, admitted time.Duration
	submit              time.Duration
	round               uint64
	arrive, ok          bool
}

// ticketRing bounds the tickets the pacer can have in flight: about
// three seconds of submissions at the default rate. A backlog that
// large makes the run invalid anyway; when it is reached the pacer
// waits, and its lateness shows the stall.
const ticketRing = 1 << 17

// pacerTick is the pacer's shortest sleep. When it is ahead of
// schedule it sleeps at least this long and then submits every op that
// has come due, rather than waking once per op; each op's latency is
// still timed from its own due time.
const pacerTick = time.Millisecond

// servePass is one measured run of the pacer and the reader.
type servePass struct {
	start      time.Time
	window     time.Duration // start to Stop's return
	ops        []opRec
	opErrs     []error         // first few submit or admission errors
	reads      []time.Duration // due time to response
	readErrs   []error
	lateMax    time.Duration
	pendingMax int64
	res        core.RunResult
	stats      serve.Stats
}

// driveServe offers Rate ops/s for dur from one open-loop pacer, with
// ReadsPerSec /load reads alongside, then stops the server (which
// drains every submission) and waits for every ticket.
func driveServe(inst *serveInstance, p serveParams, seed uint64, dur time.Duration, rec *obs.SpanRecorder) (servePass, error) {
	total := int(int64(p.Rate) * int64(dur) / int64(time.Second))
	out := servePass{ops: make([]opRec, total)}
	ring := make([]serve.Ticket, ticketRing)
	var published, admitted atomic.Int64
	var collectErrs []error

	// The collector waits for the tickets in submission order; groups
	// complete in that order, so the stamp is each op's admission time.
	out.start = time.Now()
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for i := range out.ops {
			for published.Load() <= int64(i) {
				time.Sleep(100 * time.Microsecond)
			}
			r := &out.ops[i]
			if r.ok {
				tk := &ring[i%ticketRing]
				round, err := tk.Wait()
				r.admitted = time.Since(out.start)
				*tk = serve.Ticket{}
				if err != nil {
					r.ok = false
					if len(collectErrs) < 4 {
						collectErrs = append(collectErrs, fmt.Errorf("submission %d: %w", i, err))
					}
				}
				r.round = round
			}
			admitted.Add(1)
		}
	}()

	readPeriod := time.Duration(float64(time.Second) / p.ReadsPerSec)
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for due := out.start.Add(readPeriod / 2); due.Sub(out.start) < dur; due = due.Add(readPeriod) {
			time.Sleep(time.Until(due))
			t0 := time.Now()
			err := readLoad(inst.handler, p.ReadK)
			t1 := time.Now()
			rec.Span(0, tidServe, "serve.read", t0, t1.Sub(t0))
			out.reads = append(out.reads, t1.Sub(due))
			if err != nil {
				out.readErrs = append(out.readErrs, err)
			}
		}
	}()

	gen := rng.New(seed).Split(2)
	for i := range out.ops {
		due := time.Duration(int64(i) * int64(time.Second) / int64(p.Rate))
		if d := due - time.Since(out.start); d > 0 {
			time.Sleep(max(d, pacerTick))
		}
		for int64(i)-admitted.Load() >= ticketRing {
			time.Sleep(100 * time.Microsecond)
		}
		op := serve.Op{Kind: serve.OpCompleteWeighted, Node: gen.Intn(inst.n), Count: 1}
		arrive := i%2 == 0
		if arrive {
			op = serve.Op{Kind: serve.OpArriveWeighted, Node: op.Node, Weight: p.WeightLo + (p.WeightHi-p.WeightLo)*gen.Float64()}
		}
		sent := time.Since(out.start)
		tk, err := inst.srv.Submit(op)
		submit := time.Since(out.start) - sent
		ring[i%ticketRing] = tk
		out.ops[i] = opRec{due: due, sent: sent, submit: submit, arrive: arrive, ok: err == nil}
		if err != nil && len(out.opErrs) < 4 {
			out.opErrs = append(out.opErrs, fmt.Errorf("submission %d: %w", i, err))
		}
		published.Store(int64(i + 1))
		out.lateMax = max(out.lateMax, sent-due)
		out.pendingMax = max(out.pendingMax, int64(i+1)-admitted.Load())
	}
	<-readDone
	res, err := inst.srv.Stop()
	out.window = time.Since(out.start)
	<-collected
	out.opErrs = append(out.opErrs, collectErrs...)
	rec.Span(0, tidBench, "serve.window", out.start, out.window)
	out.res, out.stats = res, inst.srv.Stats()
	return out, err
}

// readLoad issues GET /load?k=<k> through the handler, without a
// socket, and checks the answer: k nodes in ascending load order.
func readLoad(h http.Handler, k int) error {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/load?k=%d", k), nil))
	if w.Code != http.StatusOK {
		return fmt.Errorf("GET /load: status %d: %s", w.Code, w.Body.String())
	}
	var body struct {
		Nodes []struct {
			Node int     `json:"node"`
			Load float64 `json:"load"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		return fmt.Errorf("GET /load: %w", err)
	}
	if len(body.Nodes) != k {
		return fmt.Errorf("GET /load: %d nodes, want %d", len(body.Nodes), k)
	}
	for i := 1; i < k; i++ {
		if body.Nodes[i].Load < body.Nodes[i-1].Load {
			return fmt.Errorf("GET /load: loads not ascending at %d", i)
		}
	}
	return nil
}

// checkServe is the serve workload's output check. It returns the
// number of operations that were not admitted exactly once and the
// failed checks: every ticket names a round that ran; each round's
// journal entry holds exactly the submissions whose tickets name that
// round, so the journal's total equals the admitted count; and the
// final task count equals the initial one plus the ledger's arrivals
// minus its departures.
func checkServe(pass *servePass, j *serve.Journal, initial, final int64) (int64, []error) {
	var failed int64
	var errs []error
	perRound := map[int]int64{}
	var admitted, arrivals int64
	for i := range pass.ops {
		r := &pass.ops[i]
		if !r.ok || r.round == 0 || r.round > uint64(pass.res.Rounds) {
			failed++
			continue
		}
		perRound[int(r.round)]++
		admitted++
		if r.arrive {
			arrivals++
		}
	}
	if failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d submissions were not admitted", failed, len(pass.ops)))
		errs = append(errs, pass.opErrs...)
	}
	if j == nil {
		return failed, append(errs, fmt.Errorf("no journal"))
	}
	var journaled int64
	for _, e := range j.Entries {
		var c int64
		for _, w := range e.WeightArrivals {
			c += int64(len(w.Weights))
		}
		for _, d := range e.WeightDepartures {
			c += d.Count
		}
		if c != perRound[e.Round] {
			errs = append(errs, fmt.Errorf("round %d: journal holds %d submissions, %d tickets name it", e.Round, c, perRound[e.Round]))
		}
		delete(perRound, e.Round)
		journaled += c
	}
	for r, c := range perRound {
		errs = append(errs, fmt.Errorf("round %d: %d tickets name it but the journal has no entry", r, c))
	}
	if journaled != admitted {
		errs = append(errs, fmt.Errorf("journal holds %d submissions, %d admitted", journaled, admitted))
	}
	led := pass.res.Ledger
	if led.ArrivedTasks != arrivals {
		errs = append(errs, fmt.Errorf("ledger arrived %d tasks, %d arrivals admitted", led.ArrivedTasks, arrivals))
	}
	if want := initial + led.ArrivedTasks - led.DepartedTasks; final != want {
		errs = append(errs, fmt.Errorf("final task count %d, want %d = %d + %d - %d", final, want, initial, led.ArrivedTasks, led.DepartedTasks))
	}
	if pass.stats.Rejected != 0 {
		errs = append(errs, fmt.Errorf("server rejected %d submissions", pass.stats.Rejected))
	}
	return failed, errs
}

// Validity limits of a serve job (README.md): beyond them the latencies
// measure the generator or a backlog that grows with the run's length.
const (
	maxLate          = 100 * time.Millisecond
	maxPendingSecond = 1 // seconds of offered ops
)

// finishServe checks one pass into res and closes the instance.
func finishServe(res *result, inst *serveInstance, p serveParams, pass *servePass, passErr error) {
	defer inst.close()
	res.Attempted += int64(len(pass.ops) + len(pass.reads))
	if pass.lateMax > maxLate {
		res.Invalid = append(res.Invalid, fmt.Sprintf("pacer ran %v late (limit %v)", pass.lateMax, maxLate))
	}
	if limit := int64(p.Rate) * maxPendingSecond; pass.pendingMax > limit {
		res.Invalid = append(res.Invalid, fmt.Sprintf("backlog reached %d ops (limit %d)", pass.pendingMax, limit))
	}
	if passErr != nil {
		res.fail("serve: %v", passErr)
	}
	for _, err := range pass.readErrs {
		res.fail("%v", err)
	}
	failed, errs := checkServe(pass, inst.srv.Journal(), inst.tasks, inst.eng.TaskCount())
	res.Failed += failed
	for _, err := range errs {
		res.Failures = append(res.Failures, err.Error())
	}
}

// admitMs returns every admitted op's time from its due time to its
// admission, in milliseconds.
func admitMs(ops []opRec) []float64 {
	out := make([]float64, 0, len(ops))
	for _, r := range ops {
		if r.ok {
			out = append(out, msOf(r.admitted-r.due))
		}
	}
	return out
}

func runServe(cfg runConfig, p serveParams) (*result, error) {
	res := newResult("serve", p)
	if cfg.Trace {
		return res, traceServe(cfg, p, res)
	}
	var admit, reads []float64
	var rs roundStats
	err := jobLoop(res, cfg.Duration,
		func() (*serveInstance, error) { return buildServe(p, cfg.Seed, nil) },
		func(inst *serveInstance) { inst.close() },
		func(inst *serveInstance) (time.Duration, bool) {
			pass, err := driveServe(inst, p, cfg.Seed, p.jobDuration(), nil)
			finishServe(res, inst, p, &pass, err)
			if err != nil {
				return 0, false
			}
			rs.add(pass.res.Rounds, pass.window, ms(inst.te.rounds))
			admit = append(admit, admitMs(pass.ops)...)
			reads = append(reads, ms(pass.reads)...)
			return pass.window, true
		})
	if err != nil {
		return nil, err
	}
	rs.set(res)
	res.set("admit_ms_p50", percentile(admit, 0.5), len(admit))
	res.set("admit_ms_p99", percentile(admit, 0.99), len(admit))
	res.set("read_ms_p50", percentile(reads, 0.5), len(reads))
	res.set("fail_ratio", float64(res.Failed)/float64(res.Attempted), 0)
	return res, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return len(b), nil
}

// traceServe runs one job untraced and one traced on fresh servers, and derives the per-layer metrics from the traced spans, the
// raw submit and admission samples, and the server's own Stats.
func traceServe(cfg runConfig, p serveParams, res *result) error {
	inst, err := buildServe(p, cfg.Seed, nil)
	if err != nil {
		return err
	}
	plain, err := driveServe(inst, p, cfg.Seed, p.jobDuration(), nil)
	finishServe(res, inst, p, &plain, err)
	if err != nil {
		return nil
	}
	runtime.GC()
	rec := obs.NewSpanRecorder(spanCap)
	if inst, err = buildServe(p, cfg.Seed, rec); err != nil {
		return err
	}
	rt0 := readRuntime()
	pass, err := driveServe(inst, p, cfg.Seed, p.jobDuration(), rec)
	rt1 := readRuntime()
	if err != nil {
		finishServe(res, inst, p, &pass, err)
		return nil
	}
	tot, path, err := writeTrace(rec, cfg.OutDir, fmt.Sprintf("trace-serve-seed%d.json", cfg.Seed))
	if err != nil {
		inst.close()
		return err
	}
	res.TraceFile = path
	rounds := int64(pass.res.Rounds)
	apply, journal, step := tot.dur("shard.ApplyEvents"), tot.dur("serve.journal"), tot.dur("shard.Step")
	probe := tot.dur("serve.read_probe")
	window := tot.dur("serve.window")
	unacc := window - apply - journal - step - probe
	shardLayer(res, inst.eng, tot, rounds)
	res.set("shard.moves_per_round", float64(pass.res.Moves)/float64(rounds), 0)

	submitUs := make([]float64, len(pass.ops))
	exactUs := make([]float64, 0, len(pass.ops))
	for i, r := range pass.ops {
		submitUs[i] = float64(r.submit) / float64(time.Microsecond)
		if r.ok {
			exactUs = append(exactUs, float64(r.admitted-r.sent)/float64(time.Microsecond))
		}
	}
	res.set("serve.submit_us_p50", percentile(submitUs, 0.5), len(submitUs))
	res.set("serve.submit_us_p99", percentile(submitUs, 0.99), len(submitUs))
	if pass.stats.Batches > 0 {
		res.set("serve.queue_ms", pass.stats.QueueSec*1e3/float64(pass.stats.Batches), int(pass.stats.Batches))
	}
	res.set("serve.batch_size_mean", pass.stats.BatchMean, int(pass.stats.Batches))
	res.set("serve.rounds_per_s", float64(rounds)/window.Seconds(), 0)
	res.set("serve.loop_busy_ratio", float64(apply+journal+step+probe)/float64(window), 0)
	if reads := tot["serve.read_probe"].N; reads > 0 {
		res.set("serve.read_probe_calls", float64(inst.probe.calls)/float64(inst.probe.probes), reads)
		res.set("serve.read_probe_ms", msOf(probe)/float64(reads), reads)
	}
	res.set("serve.journal_ms", perRound(journal, rounds), 0)
	res.set("serve.unaccounted_ms", perRound(unacc, rounds), 0)
	var cw countingWriter
	if j := inst.srv.Journal(); j != nil && j.Write(&cw) == nil {
		res.set("serve.journal_bytes_per_round", float64(cw.n)/float64(rounds), 0)
	}
	if exact := percentile(exactUs, 0.99); exact > 0 {
		res.set("obs.admit_p99_over_exact", pass.stats.AdmitP99Us/exact, len(exactUs))
	}
	setRuntime(res, rt0, rt1, rounds)
	res.set("loadgen.late_ms_max", msOf(pass.lateMax), len(pass.ops))
	res.set("loadgen.pending_max", float64(pass.pendingMax), len(pass.ops))
	res.set("bench.trace_overhead_ratio", percentile(admitMs(pass.ops), 0.5)/percentile(admitMs(plain.ops), 0.5), 0)
	res.Ledger = []ledgerEntry{
		{"wall (serve.window)", perRound(window, rounds)},
		{"shard.ApplyEvents", perRound(apply, rounds)},
		{"serve.journal", perRound(journal, rounds)},
		{"shard.Step", perRound(step, rounds)},
		{"serve.read_probe", perRound(probe, rounds)},
		{"unaccounted", perRound(unacc, rounds)},
	}
	finishServe(res, inst, p, &pass, nil)
	return nil
}
