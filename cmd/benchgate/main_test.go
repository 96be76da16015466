package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func bench(name string, procs int, ns float64) Bench {
	return Bench{Name: name, Procs: procs, Iterations: 1, Metrics: map[string]float64{"ns/op": ns}}
}

// TestMatchJoinsOnNameAndProcs pins the join semantics: pairs form on
// name+procs, one-sided benchmarks and entries without ns/op are
// reported as missing rather than judged.
func TestMatchJoinsOnNameAndProcs(t *testing.T) {
	base := []Bench{
		bench("A", 4, 100),
		bench("A", 8, 200), // same name, different procs: distinct key
		bench("OnlyBase", 4, 50),
		{Name: "NoNs", Procs: 4, Metrics: map[string]float64{"allocs/op": 3}},
	}
	fresh := []Bench{
		bench("A", 4, 150),
		bench("A", 8, 100),
		bench("OnlyFresh", 4, 70),
		{Name: "NoNs", Procs: 4, Metrics: map[string]float64{"allocs/op": 3}},
	}
	pairs, missing := match(base, fresh, "t")
	if len(pairs) != 2 {
		t.Fatalf("matched %d pairs, want 2: %+v", len(pairs), pairs)
	}
	if pairs[0].key != "A-4" || math.Abs(pairs[0].ratio-1.5) > 1e-12 {
		t.Errorf("pair 0 = %+v, want A-4 ratio 1.5", pairs[0])
	}
	if pairs[1].key != "A-8" || math.Abs(pairs[1].ratio-0.5) > 1e-12 {
		t.Errorf("pair 1 = %+v, want A-8 ratio 0.5", pairs[1])
	}
	// OnlyBase, OnlyFresh and NoNs must each surface exactly once.
	if len(missing) != 3 {
		t.Fatalf("%d missing reports, want 3: %v", len(missing), missing)
	}
}

// TestNormalizeCancelsMachineSpeed pins the median normalization: a
// uniformly 2x-slower fresh run normalizes every benchmark back to 1,
// and a single outlier above the pack keeps its relative slowdown.
func TestNormalizeCancelsMachineSpeed(t *testing.T) {
	pairs := []pair{
		{key: "a", ratio: 2.0},
		{key: "b", ratio: 2.0},
		{key: "c", ratio: 2.0},
		{key: "d", ratio: 6.0}, // 3x the pack
	}
	normalize(pairs, 3)
	for _, p := range pairs[:3] {
		if math.Abs(p.normed-1) > 1e-12 {
			t.Errorf("%s: normalized %.3f, want 1", p.key, p.normed)
		}
	}
	if math.Abs(pairs[3].normed-3) > 1e-12 {
		t.Errorf("outlier normalized %.3f, want 3", pairs[3].normed)
	}
}

// TestNormalizeBelowMinMatchedKeepsRawRatios pins the small-sample
// fallback: with fewer matches than -min-matched the median is not
// trusted and raw ratios pass through unchanged.
func TestNormalizeBelowMinMatchedKeepsRawRatios(t *testing.T) {
	pairs := []pair{{key: "a", ratio: 1.4}, {key: "b", ratio: 0.9}}
	normalize(pairs, 3)
	for _, p := range pairs {
		if p.normed != p.ratio {
			t.Errorf("%s: normalized %.3f, want raw %.3f", p.key, p.normed, p.ratio)
		}
	}
}

// TestMatchCarriesAllocs pins that pairs pick up allocs/op only when
// both sides report it.
func TestMatchCarriesAllocs(t *testing.T) {
	base := []Bench{
		{Name: "A", Procs: 1, Metrics: map[string]float64{"ns/op": 100, "allocs/op": 10}},
		{Name: "B", Procs: 1, Metrics: map[string]float64{"ns/op": 100, "allocs/op": 10}},
	}
	fresh := []Bench{
		{Name: "A", Procs: 1, Metrics: map[string]float64{"ns/op": 100, "allocs/op": 12}},
		{Name: "B", Procs: 1, Metrics: map[string]float64{"ns/op": 100}}, // fresh side dropped ReportAllocs
	}
	pairs, _ := match(base, fresh, "t")
	if len(pairs) != 2 {
		t.Fatalf("matched %d pairs, want 2", len(pairs))
	}
	if !pairs[0].hasAllocs || pairs[0].baseAllocs != 10 || pairs[0].freshAllocs != 12 {
		t.Errorf("pair A = %+v, want allocs 10 -> 12", pairs[0])
	}
	if pairs[1].hasAllocs {
		t.Errorf("pair B carries allocs despite one-sided reporting: %+v", pairs[1])
	}
}

// TestJudgeAllocsFactorAndSlack pins the two-condition alloc gate: a
// regression needs both the factor exceeded and the absolute growth
// above the slack, so tiny deterministic counts never flap.
func TestJudgeAllocsFactorAndSlack(t *testing.T) {
	pairs := []pair{
		{key: "tiny-jump", hasAllocs: true, baseAllocs: 2, freshAllocs: 50},       // 25x but within slack
		{key: "big-growth", hasAllocs: true, baseAllocs: 1000, freshAllocs: 1500}, // +500 but under factor
		{key: "regression", hasAllocs: true, baseAllocs: 1000, freshAllocs: 3000}, // both tripped
		{key: "no-allocs", baseAllocs: 0, freshAllocs: 0},                         // skipped
	}
	vs := judgeAllocs(pairs, 2.0, 64)
	if len(vs) != 3 {
		t.Fatalf("judged %d pairs, want 3: %+v", len(vs), vs)
	}
	for i, wantFail := range []bool{false, false, true} {
		if vs[i].failed != wantFail {
			t.Errorf("%s: failed=%v, want %v", pairs[i].key, vs[i].failed, wantFail)
		}
	}
}

// TestParseCeilingsSplitsOnLastEquals pins the -max-allocs grammar:
// benchmark names contain '=' (ring-n=1000000), so the limit is the
// text after the final '='.
func TestParseCeilingsSplitsOnLastEquals(t *testing.T) {
	cs, err := parseCeilings("WeightedShardRound/ring-n=1000000/shard=1000,Other=5")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("parsed %d ceilings, want 2: %+v", len(cs), cs)
	}
	if cs[0].pattern != "WeightedShardRound/ring-n=1000000/shard" || cs[0].limit != 1000 {
		t.Errorf("ceiling 0 = %+v", cs[0])
	}
	if cs[1].pattern != "Other" || cs[1].limit != 5 {
		t.Errorf("ceiling 1 = %+v", cs[1])
	}
	for _, bad := range []string{"nolimit", "=5", "x=notanumber", "x=-3"} {
		if _, err := parseCeilings(bad); err == nil {
			t.Errorf("parseCeilings(%q) accepted, want error", bad)
		}
	}
}

// TestJudgeCeilings pins the absolute gate: matches at or below the
// limit pass, above fail, and a pattern matching no fresh benchmark
// with allocs/op is an error rather than a silent pass.
func TestJudgeCeilings(t *testing.T) {
	fresh := []Bench{
		{Name: "Round/ring-n=1000000/shard", Procs: 1, Metrics: map[string]float64{"allocs/op": 11}},
		{Name: "Round/ring-n=1000/shard", Procs: 1, Metrics: map[string]float64{"allocs/op": 2000}},
		{Name: "NoAllocs", Procs: 1, Metrics: map[string]float64{"ns/op": 5}},
	}
	vs, err := judgeCeilings(fresh, []ceiling{{pattern: "n=1000000/shard", limit: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].failed {
		t.Fatalf("verdicts = %+v, want one pass", vs)
	}
	vs, err = judgeCeilings(fresh, []ceiling{{pattern: "n=1000/shard", limit: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !vs[0].failed {
		t.Fatalf("verdicts = %+v, want one failure", vs)
	}
	if _, err := judgeCeilings(fresh, []ceiling{{pattern: "NoAllocs", limit: 1}}); err == nil {
		t.Error("pattern matching only an allocs-free benchmark accepted, want error")
	}
	if _, err := judgeCeilings(fresh, []ceiling{{pattern: "Renamed", limit: 1}}); err == nil {
		t.Error("pattern matching nothing accepted, want error")
	}
}

// TestMain lets a test run the command itself: with BENCHGATE_RUN_MAIN
// set, the test binary runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHGATE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runGate runs benchgate on one baseline=fresh pair of benchmark sets
// and returns its exit code and output.
func runGate(t *testing.T, base, fresh []Bench) (int, string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name string, benches []Bench) string {
		data, err := json.Marshal(benches)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cmd := exec.Command(os.Args[0], write("base.json", base)+"="+write("fresh.json", fresh))
	cmd.Env = append(os.Environ(), "BENCHGATE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

// TestGateFailsWhenNothingMatches: baseline and fresh files whose names
// are disjoint — here the -2 suffix a GOMAXPROCS=2 run adds — gate
// nothing, and that must fail rather than pass; the same benchmarks
// under matching names pass.
func TestGateFailsWhenNothingMatches(t *testing.T) {
	base := []Bench{bench("BenchmarkA", 0, 2e7), bench("BenchmarkB", 0, 3e7), bench("BenchmarkC", 0, 4e7)}
	var suffixed []Bench
	for _, b := range base {
		b.Procs = 2
		suffixed = append(suffixed, b)
	}
	code, out := runGate(t, base, suffixed)
	if code != 1 || !strings.Contains(out, "no benchmarks matched") {
		t.Fatalf("disjoint names: exit %d, output:\n%s", code, out)
	}
	if code, out := runGate(t, base, base); code != 0 {
		t.Fatalf("matching names: exit %d, output:\n%s", code, out)
	}
}
