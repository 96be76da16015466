// Command lbbench is the repository's end-to-end benchmark. It runs one
// workload per process against the library packages, from a seed given
// on the command line, and prints every metric by name with its unit:
//
//	lbbench -workload converge|serve|cluster -seed N -seconds S -trace 0|1
//
// With -trace 0 the run is untraced and its last output line carries the
// end-to-end metrics. With -trace 1 the run measures the workload twice,
// untraced and then with a span recorder wrapped around every call the
// benchmark makes into a layer; it writes the spans as a Chrome trace and
// its last line carries the per-layer metrics derived from them.
//
// Every run checks the program's outputs (see the check functions of
// each workload); a failed check sets "correct" to false and the exit
// code to 1. README.md gives the workloads' rationale and the map from
// each per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// endToEnd are the metrics of the untraced run that every workload
// reports, in the order of BENCHMARK.json. Each is non-zero on every
// workload.
var endToEnd = []string{
	"setup_s",
	"rounds_per_s",
	"round_ms_p50",
	"round_ms_p90",
	"mem_peak_mb",
}

// perLayer are the metrics of the traced run, in the order of
// BENCHMARK.json. A layer a workload does not run through reads 0.
var perLayer = []string{
	"core.rounds", "core.moves", "core.state_ms", "core.stop_ms", "core.unaccounted_ms",
	"shard.step_ms", "shard.snapshot_ms", "shard.decide_ms", "shard.commit_ms",
	"shard.moves_per_round", "shard.cross_flows_per_round", "shard.apply_ms", "shard.arena_live_ratio",
	"serve.submit_us_p50", "serve.submit_us_p99", "serve.queue_ms", "serve.batch_size_mean",
	"serve.rounds_per_s", "serve.loop_busy_ratio", "serve.read_probe_calls", "serve.read_probe_ms",
	"serve.journal_ms", "serve.journal_bytes_per_round", "serve.unaccounted_ms",
	"obs.admit_p99_over_exact",
	"cluster.step_ms", "cluster.apply_ms",
	"cluster.coord_snapshot_ms", "cluster.coord_decide_ms", "cluster.coord_commit_ms",
	"cluster.worker_decide_ms", "cluster.worker_commit_ms", "cluster.barrier_wait_ms",
	"cluster.flows_per_round", "cluster.unaccounted_ms",
	"transport.bytes_per_round", "transport.frames_per_round",
	"runtime.alloc_mb_per_round", "runtime.gc_cpu_fraction",
	"loadgen.late_ms_max", "loadgen.pending_max",
	"bench.trace_overhead_ratio",
}

// units maps every metric name the benchmark can print to its unit.
var units = map[string]string{
	"setup_s":      "s",
	"rounds_per_s": "1/s",
	"round_ms_p50": "ms",
	"round_ms_p90": "ms",
	"mem_peak_mb":  "MB",
	"converge_s":   "s",
	"admit_ms_p50": "ms",
	"admit_ms_p99": "ms",
	"read_ms_p50":  "ms",
	"fail_ratio":   "ratio",

	"core.rounds":         "count",
	"core.moves":          "count",
	"core.state_ms":       "ms",
	"core.stop_ms":        "ms",
	"core.unaccounted_ms": "ms",

	"shard.step_ms":                 "ms",
	"shard.snapshot_ms":             "ms",
	"shard.decide_ms":               "ms",
	"shard.commit_ms":               "ms",
	"shard.moves_per_round":         "count",
	"shard.cross_flows_per_round":   "count",
	"shard.apply_ms":                "ms",
	"shard.arena_live_ratio":        "ratio",
	"serve.submit_us_p50":           "us",
	"serve.submit_us_p99":           "us",
	"serve.queue_ms":                "ms",
	"serve.batch_size_mean":         "count",
	"serve.rounds_per_s":            "1/s",
	"serve.loop_busy_ratio":         "ratio",
	"serve.read_probe_calls":        "count",
	"serve.read_probe_ms":           "ms",
	"serve.journal_ms":              "ms",
	"serve.journal_bytes_per_round": "B",
	"serve.unaccounted_ms":          "ms",
	"obs.admit_p99_over_exact":      "ratio",

	"cluster.step_ms":           "ms",
	"cluster.apply_ms":          "ms",
	"cluster.coord_snapshot_ms": "ms",
	"cluster.coord_decide_ms":   "ms",
	"cluster.coord_commit_ms":   "ms",
	"cluster.worker_decide_ms":  "ms",
	"cluster.worker_commit_ms":  "ms",
	"cluster.barrier_wait_ms":   "ms",
	"cluster.flows_per_round":   "count",
	"cluster.unaccounted_ms":    "ms",

	"transport.bytes_per_round":  "B",
	"transport.frames_per_round": "count",
	"runtime.alloc_mb_per_round": "MB",
	"runtime.gc_cpu_fraction":    "ratio",
	"loadgen.late_ms_max":        "ms",
	"loadgen.pending_max":        "count",
	"bench.trace_overhead_ratio": "ratio",
}

// benchProcs is the GOMAXPROCS of every run. The engines still run
// their shards as goroutines, but on one processor: where a host runs
// the vCPUs of a guest in parallel only some of the time, a second
// processor makes the figures depend on when a run happens, not on the
// code it runs.
const benchProcs = 1

// runConfig is what every workload receives from the command line.
type runConfig struct {
	Seed     uint64
	Duration time.Duration
	Trace    bool
	OutDir   string
}

// metric is one measured value. Samples is the number of raw samples a
// percentile or median was computed from (0 for counts and ratios).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is what one workload run produced.
type result struct {
	Workload  string            `json:"workload"`
	Params    any               `json:"params"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Ledger lists, per round, the layer times that add up to the
	// wall time of the traced pass (the last entry is "unaccounted").
	Ledger    []ledgerEntry `json:"ledger,omitempty"`
	TraceFile string        `json:"trace_file,omitempty"`
	// Invalid names the validity rules a run broke (see README.md): its
	// figures are printed but should not be compared.
	Invalid []string `json:"invalid,omitempty"`
}

type ledgerEntry struct {
	Layer string  `json:"layer"`
	MsPer float64 `json:"ms_per_round"`
}

func newResult(workload string, params any) *result {
	return &result{Workload: workload, Params: params, Metrics: map[string]metric{}}
}

// set records a metric; the unit comes from the units table.
func (r *result) set(name string, v float64, samples int) {
	u, ok := units[name]
	if !ok {
		panic("lbbench: metric without a unit: " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: u, Samples: samples}
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.Failures) == 0 }

// workloads maps each -workload name to its runner at full size.
var workloads = map[string]func(runConfig) (*result, error){
	"converge": func(c runConfig) (*result, error) { return runConverge(c, defaultConverge()) },
	"serve":    func(c runConfig) (*result, error) { return runServe(c, defaultServe()) },
	"cluster":  func(c runConfig) (*result, error) { return runCluster(c, defaultCluster()) },
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: converge, serve or cluster")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs and of the protocol")
	seconds := fs.Int("seconds", 10, "measurement time of one run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	outDir := fs.String("out-dir", ".bench_build/out", "directory for the result and Chrome trace files")
	commit := fs.String("commit", "unknown", "commit of the measured sources, for the environment block")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "lbbench: unknown workload %q (want converge, serve or cluster)\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "lbbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{Seed: *seed, Duration: time.Duration(*seconds) * time.Second, Trace: *trace == 1, OutDir: *outDir}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "lbbench: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(benchProcs)
	env := environment(*commit, *seed)
	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "lbbench: %s: %v\n", *name, err)
		return 1
	}
	if err := report(stdout, env, cfg, res); err != nil {
		fmt.Fprintf(stderr, "lbbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		for _, f := range res.Failures {
			fmt.Fprintf(stderr, "lbbench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}

// finalLine is the contract line the benchmark prints last.
type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// selectMetrics returns the metrics the last line carries: the
// end-to-end set of an untraced run or the per-layer set of a traced
// one, without sample counts. An end-to-end metric must have been
// measured; a per-layer one the workload does not reach reads 0.
func selectMetrics(res *result, traced bool) (map[string]metric, error) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok {
			if !traced {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", n)
			}
			m = metric{Unit: units[n]}
		}
		out[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out, nil
}

// report prints a readable summary, the full report (environment,
// parameters, every metric with its sample count, the ledger) as one
// JSON line, and the contract line last. It also writes the full report
// to the output directory.
func report(w io.Writer, env map[string]any, cfg runConfig, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "untraced"
	if cfg.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s (%s) seed=%d: attempted=%d failed=%d\n", res.Workload, mode, cfg.Seed, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		if m.Samples > 0 {
			fmt.Fprintf(w, "#   %-32s %14.6g %-6s (n=%d)\n", n, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "#   %-32s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "# chrome trace: %s\n", res.TraceFile)
	}
	for _, why := range res.Invalid {
		fmt.Fprintf(w, "# INVALID RUN: %s\n", why)
	}
	full, err := json.Marshal(map[string]any{"report": res, "env": env, "mode": mode})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", full)
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("result-%s-%s-seed%d.json", res.Workload, mode, cfg.Seed))
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	ms, err := selectMetrics(res, cfg.Trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(finalLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
