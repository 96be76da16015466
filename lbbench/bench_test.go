package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/task"
)

// Small instances of the three workloads: same code paths, seconds of
// test time.
func smallConverge() convergeParams {
	p := defaultConverge()
	p.Dim = 8
	return p
}

func smallServe() serveParams {
	p := defaultServe()
	p.LogN = 10
	p.Rate = 4000
	p.ReadsPerSec = 10
	p.JobSeconds = 0.4
	return p
}

func smallCluster() clusterParams {
	p := defaultCluster()
	p.Side = 16
	p.TasksPerNode = 8
	p.Arrivals, p.Completions = 64, 64
	p.Rounds = 12
	return p
}

// workloadMetrics are the end-to-end metrics that exist on some
// workloads only; an untraced run prints them in its report line.
var workloadMetrics = map[string][]string{
	"converge": {"converge_s", "fail_ratio"},
	"serve":    {"admit_ms_p50", "admit_ms_p99", "read_ms_p50", "fail_ratio"},
	"cluster":  {"fail_ratio"},
}

func smallWorkloads() map[string]func(runConfig) (*result, error) {
	return map[string]func(runConfig) (*result, error){
		"converge": func(c runConfig) (*result, error) { return runConverge(c, smallConverge()) },
		"serve":    func(c runConfig) (*result, error) { return runServe(c, smallServe()) },
		"cluster":  func(c runConfig) (*result, error) { return runCluster(c, smallCluster()) },
	}
}

// runSmall runs a small workload through the command's entry point and
// returns its report and its contract line.
func runSmall(t *testing.T, workload string, trace int, seed string) (map[string]any, finalLine) {
	t.Helper()
	saved := workloads
	workloads = smallWorkloads()
	defer func() { workloads = saved }()
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", seed, "-seconds", "1",
		"-trace", map[int]string{0: "0", 1: "1"}[trace], "-out-dir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("%s trace=%d: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want a report and a contract line, got %q", workload, out.String())
	}
	var last finalLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: contract line: %v", workload, err)
	}
	var full map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &full); err != nil {
		t.Fatalf("%s: report line: %v", workload, err)
	}
	return full, last
}

func reportMetrics(t *testing.T, full map[string]any) map[string]any {
	t.Helper()
	rep, ok := full["report"].(map[string]any)
	if !ok {
		t.Fatalf("report line without a report: %v", full)
	}
	return rep["metrics"].(map[string]any)
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for _, w := range []string{"converge", "serve", "cluster"} {
		full, last := runSmall(t, w, 0, "7")
		if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
			t.Errorf("%s: contract line %+v", w, last)
		}
		if len(last.Metrics) != len(endToEnd) {
			t.Errorf("%s: contract line has %d metrics, want the %d end-to-end ones", w, len(last.Metrics), len(endToEnd))
		}
		for _, n := range endToEnd {
			m, ok := last.Metrics[n]
			if !ok || m.Unit != units[n] || m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w, n, m, units[n])
			}
		}
		rm := reportMetrics(t, full)
		for _, n := range workloadMetrics[w] {
			m, ok := rm[n].(map[string]any)
			if !ok || m["unit"] != units[n] {
				t.Errorf("%s: report lacks %s with unit %s: %v", w, n, units[n], rm[n])
			}
		}
		env, _ := full["env"].(map[string]any)
		for _, k := range []string{"nproc", "gomaxprocs", "cpu", "go", "commit", "seed", "source_sha256"} {
			if _, ok := env[k]; !ok {
				t.Errorf("%s: environment block lacks %s", w, k)
			}
		}

		full, last = runSmall(t, w, 1, "7")
		if !last.Correct {
			t.Errorf("%s traced: contract line %+v", w, last)
		}
		for _, n := range perLayer {
			if m, ok := last.Metrics[n]; !ok || m.Unit != units[n] {
				t.Errorf("%s traced: per-layer %s = %+v, want unit %s", w, n, m, units[n])
			}
		}
		checkLedger(t, w, full)
	}
}

// checkLedger checks that the traced layer times plus unaccounted add up
// to the wall time, and that unaccounted is not negative.
func checkLedger(t *testing.T, w string, full map[string]any) {
	t.Helper()
	led, _ := full["report"].(map[string]any)["ledger"].([]any)
	if len(led) < 3 {
		t.Fatalf("%s: ledger %v", w, led)
	}
	wall := led[0].(map[string]any)["ms_per_round"].(float64)
	sum := 0.0
	for _, e := range led[1:] {
		sum += e.(map[string]any)["ms_per_round"].(float64)
	}
	last := led[len(led)-1].(map[string]any)
	if last["layer"] != "unaccounted" || last["ms_per_round"].(float64) < -1e-6*wall {
		t.Errorf("%s: ledger ends with %v", w, last)
	}
	if math.Abs(sum-wall) > 1e-6*wall {
		t.Errorf("%s: ledger layers sum to %g ms, wall is %g ms", w, sum, wall)
	}
}

func TestLayerIsolation(t *testing.T) {
	value := func(l finalLine, n string) float64 { return l.Metrics[n].Value }
	_, c1 := runSmall(t, "converge", 1, "3")
	_, c2 := runSmall(t, "converge", 1, "3")
	for _, n := range []string{"shard.apply_ms", "transport.bytes_per_round", "transport.frames_per_round"} {
		if value(c1, n) != 0 {
			t.Errorf("converge: %s = %g, want 0", n, value(c1, n))
		}
	}
	for _, n := range []string{"core.rounds", "core.moves"} {
		if value(c1, n) <= 0 || value(c1, n) != value(c2, n) {
			t.Errorf("converge: %s = %g then %g, want equal positive counts", n, value(c1, n), value(c2, n))
		}
	}
	_, s := runSmall(t, "serve", 1, "3")
	for _, n := range []string{"transport.bytes_per_round", "transport.frames_per_round"} {
		if value(s, n) != 0 {
			t.Errorf("serve: %s = %g, want 0", n, value(s, n))
		}
	}
	if value(s, "shard.apply_ms") <= 0 || value(s, "serve.read_probe_calls") != float64(int(1)<<smallServe().LogN) {
		t.Errorf("serve: apply %g ms, %g probes per read", value(s, "shard.apply_ms"), value(s, "serve.read_probe_calls"))
	}
	_, k1 := runSmall(t, "cluster", 1, "3")
	_, k2 := runSmall(t, "cluster", 1, "3")
	for _, n := range []string{"transport.bytes_per_round", "transport.frames_per_round"} {
		if value(k1, n) <= 0 || value(k1, n) != value(k2, n) {
			t.Errorf("cluster: %s = %g then %g, want equal positive counts", n, value(k1, n), value(k2, n))
		}
	}
}

func TestConvergeCheckRejectsTamperedState(t *testing.T) {
	p := smallConverge()
	inst, err := buildConverge(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.eng.Close()
	if _, err := driveConverge(inst, p, 5, nil); err != nil {
		t.Fatal(err)
	}
	st, err := inst.eng.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkConverge(st, p.Eps, inst.tasks, inst.weight); err != nil {
		t.Fatalf("untampered state fails: %v", err)
	}
	perNode := make([]task.Weights, st.System().N())
	for i := range perNode {
		perNode[i] = st.TaskWeights(i)
	}
	tamper := func(name string, edit func()) {
		saved := make([]task.Weights, len(perNode))
		for i, ws := range perNode {
			saved[i] = append(task.Weights(nil), ws...)
		}
		edit()
		bad, err := core.NewWeightedState(st.System(), perNode)
		if err != nil {
			t.Fatal(err)
		}
		if checkConverge(bad, p.Eps, inst.tasks, inst.weight) == nil {
			t.Errorf("%s: check passed", name)
		}
		perNode = saved
	}
	tamper("task dropped", func() { perNode[1] = perNode[1][1:] })
	tamper("weight changed", func() { perNode[2][0] /= 2 })
	tamper("all tasks on one node", func() {
		for i := 1; i < len(perNode); i++ {
			perNode[0] = append(perNode[0], perNode[i]...)
			perNode[i] = nil
		}
	})
}

func TestClusterCheckRejectsTamperedCounts(t *testing.T) {
	counts := []int64{3, 4, 5}
	if err := checkCluster(counts, 10, 4, 2); err != nil {
		t.Fatal(err)
	}
	counts[1]++
	if checkCluster(counts, 10, 4, 2) == nil {
		t.Error("check passed with a task added")
	}
}

// servePassForTest runs one small serve job and returns the pass with
// its still-open instance; the caller closes it.
func servePassForTest(t *testing.T, p serveParams, seed uint64) (*serveInstance, servePass) {
	t.Helper()
	inst, err := buildServe(p, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	pass, err := driveServe(inst, p, seed, p.jobDuration(), nil)
	if err != nil {
		inst.close()
		t.Fatal(err)
	}
	return inst, pass
}

func TestServeCheckRejectsTamperedRun(t *testing.T) {
	p := smallServe()
	inst, pass := servePassForTest(t, p, 9)
	defer inst.close()
	j := inst.srv.Journal()
	final := inst.eng.TaskCount()
	if failed, errs := checkServe(&pass, j, inst.tasks, final); failed != 0 || len(errs) != 0 {
		t.Fatalf("untampered run fails: %d ops, %v", failed, errs)
	}
	if _, errs := checkServe(&pass, j, inst.tasks, final+1); len(errs) == 0 {
		t.Error("check passed with a task added to the final state")
	}
	dropped := *j
	dropped.Entries = j.Entries[1:]
	if _, errs := checkServe(&pass, &dropped, inst.tasks, final); len(errs) == 0 {
		t.Error("check passed with a journal entry dropped")
	}
	pass.ops[0].round = uint64(pass.res.Rounds) + 1
	if failed, _ := checkServe(&pass, j, inst.tasks, final); failed == 0 {
		t.Error("check passed with a ticket naming a round that never ran")
	}
}

func TestServeJournalReplays(t *testing.T) {
	p := smallServe()
	inst, pass := servePassForTest(t, p, 11)
	defer inst.close()
	j := inst.srv.Journal()
	if j == nil || len(j.Entries) == 0 {
		t.Fatal("no journal entries")
	}
	eng, _, err := buildServeEngine(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res, err := serve.Replay[*core.WeightedState](j, eng)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reflect.DeepEqual(res, pass.res) {
		t.Errorf("replay gave %d rounds/%d moves, live run %d/%d", res.Rounds, res.Moves, pass.res.Rounds, pass.res.Moves)
	}
	if eng.TaskCount() != inst.eng.TaskCount() {
		t.Errorf("replayed engine holds %d tasks, live engine %d", eng.TaskCount(), inst.eng.TaskCount())
	}
}

func TestPercentileIsExact(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.2, 1}, {0.5, 3}, {0.9, 5}, {0.99, 5}, {1, 5}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input")
	}
	var many []float64
	for i := 1; i <= 1000; i++ {
		many = append(many, float64(i))
	}
	if p99 := percentile(many, 0.99); p99 != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", p99)
	}
}

func TestRoundStatsAreMediansOverJobs(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median of 3 samples = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 samples = %g, want 2.5", got)
	}
	// The slow middle job must not move the figures of the other two.
	var rs roundStats
	rs.add(10, time.Second, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	rs.add(10, 5*time.Second, []float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 90})
	rs.add(10, time.Second, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	res := newResult("test", nil)
	rs.set(res)
	for name, want := range map[string]float64{"rounds_per_s": 10, "round_ms_p50": 5, "round_ms_p90": 9} {
		if m := res.Metrics[name]; m.Value != want {
			t.Errorf("%s = %g, want %g", name, m.Value, want)
		}
	}
	if n := res.Metrics["round_ms_p50"].Samples; n != 30 {
		t.Errorf("round_ms_p50 reports %d samples, want 30", n)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "converge", "-seconds", "0"},
		{"-workload", "converge", "-trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// The jobs of one run must stay within the time asked for plus half a
// job.
func TestJobLoopHonoursDuration(t *testing.T) {
	res := newResult("test", nil)
	jobs := 0
	start := time.Now()
	err := jobLoop(res, 50*time.Millisecond,
		func() (int, error) { return 0, nil },
		func(int) {},
		func(int) (time.Duration, bool) {
			jobs++
			time.Sleep(10 * time.Millisecond)
			return 10 * time.Millisecond, true
		})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); jobs < 4 || el > 200*time.Millisecond {
		t.Errorf("%d jobs in %v", jobs, el)
	}
	if res.Metrics["setup_s"].Samples != setupRepeats+jobs-1 {
		t.Errorf("setup_s from %d samples, want %d", res.Metrics["setup_s"].Samples, setupRepeats+jobs-1)
	}
}

// BENCHMARK.json declares the metrics the contract line carries; they
// must be exactly the ones this program prints, with the same units.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit string
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []decl                  `json:"end_to_end"`
		PerLayer  []decl                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []decl, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", what, len(got), len(want))
			return
		}
		for i, d := range got {
			if d.Name != want[i] || d.Unit != units[want[i]] {
				t.Errorf("%s %d: BENCHMARK.json has %s in %s, the program prints %s in %s", what, i, d.Name, d.Unit, want[i], units[want[i]])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the program does not run", w.Name)
		}
	}
}
