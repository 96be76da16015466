package experiments

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestTable1ClassesComplete(t *testing.T) {
	classes := Table1Classes()
	if len(classes) != 4 {
		t.Fatalf("%d classes, want 4 (the rows of Table 1)", len(classes))
	}
	wantKeys := map[string]bool{"complete": true, "ring": true, "torus": true, "hypercube": true}
	for _, c := range classes {
		if !wantKeys[c.Key] {
			t.Errorf("unexpected class %q", c.Key)
		}
		g, err := c.Build(16)
		if err != nil {
			t.Fatalf("build %s: %v", c.Key, err)
		}
		if !g.IsConnected() {
			t.Errorf("%s instance disconnected", c.Key)
		}
		if l2 := c.Lambda2(g); l2 <= 0 {
			t.Errorf("%s closed-form λ₂ = %g", c.Key, l2)
		}
		if c.OursApproxVal(16, 1024) <= 0 || c.BaselineApproxVal(16, 1024) <= 0 {
			t.Errorf("%s approx formulas non-positive", c.Key)
		}
		if c.OursExactVal(16) <= 0 || c.BaselineExactVal(16) <= 0 {
			t.Errorf("%s exact formulas non-positive", c.Key)
		}
	}
}

func TestClassByKey(t *testing.T) {
	c, err := ClassByKey("ring")
	if err != nil || c.Key != "ring" {
		t.Fatalf("ClassByKey(ring): %v %v", c.Key, err)
	}
	if _, err := ClassByKey("nope"); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestBuildersRoundSizes(t *testing.T) {
	// Torus rounds to a square, hypercube to a power of two.
	torus, err := ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	g, err := torus.Build(20)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 && g.N() != 25 {
		t.Errorf("torus(20) has %d vertices", g.N())
	}
	hc, err := ClassByKey("hypercube")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := hc.Build(20)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 32 {
		t.Errorf("hypercube(20) has %d vertices, want 32", g2.N())
	}
}

func TestBoundsTable(t *testing.T) {
	rows, err := BoundsTable(16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// The paper's claim: the new bounds beat [6] on every class.
		if r.GainApprox <= 1 {
			t.Errorf("%s: approx gain %.2f not > 1", r.Class, r.GainApprox)
		}
		if r.GainExact <= 1 {
			t.Errorf("%s: exact gain %.2f not > 1", r.Class, r.GainExact)
		}
		if r.TheoremT11 <= 0 || r.TheoremT12 <= 0 {
			t.Errorf("%s: theorem bounds %g/%g", r.Class, r.TheoremT11, r.TheoremT12)
		}
	}
	text := FormatBoundsTable(rows)
	if !strings.Contains(text, "Complete Graph") || !strings.Contains(text, "Hypercube") {
		t.Error("formatted table missing rows")
	}
}

func TestMeasureApproxPhaseSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	class, err := ClassByKey("complete")
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureApproxPhase(class, MeasureOpts{
		Sizes: []int{8, 16}, TasksPerNode: 32, Repeats: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.MeanRounds <= 0 {
			t.Errorf("n=%d: non-positive rounds", p.N)
		}
		if p.MeanRounds > p.Predicted {
			t.Errorf("n=%d: measured %.0f exceeds the theory bound %.0f", p.N, p.MeanRounds, p.Predicted)
		}
	}
	out := FormatSweep(res)
	if !strings.Contains(out, "Complete") {
		t.Error("format missing class name")
	}
}

func TestMeasureExactPhaseSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	class, err := ClassByKey("ring")
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureExactPhase(class, MeasureOpts{
		Sizes: []int{6, 10}, TasksPerNode: 16, Repeats: 2, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.MeanRounds <= 0 || p.MeanRounds > p.Predicted {
			t.Errorf("n=%d: rounds %.0f vs bound %.0f", p.N, p.MeanRounds, p.Predicted)
		}
	}
}

func TestMeasureApproxNESmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	class, err := ClassByKey("torus")
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureApproxNE(class, 0.25, MeasureOpts{
		Sizes: []int{9, 16}, TasksPerNode: 32, Repeats: 2, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	// Rounds must grow with n on the torus (Θ(n) prediction).
	if res.Points[1].MeanRounds <= res.Points[0].MeanRounds {
		t.Errorf("rounds did not grow with n: %v", res.Points)
	}
	for _, p := range res.Points {
		if p.MeanRounds > p.Predicted {
			t.Errorf("n=%d: measured %.0f exceeds theory %.0f", p.N, p.MeanRounds, p.Predicted)
		}
	}
}

// TestMeasureSweepInvariance checks the two orthogonal axes the harness
// rewrite introduced: the worker count must not change the measured
// sweep at all, and neither may the execution engine (all engines run
// the identical trajectory through the shared driver).
func TestMeasureSweepInvariance(t *testing.T) {
	class, err := ClassByKey("complete")
	if err != nil {
		t.Fatal(err)
	}
	base := MeasureOpts{Sizes: []int{8, 12}, TasksPerNode: 16, Repeats: 2, Seed: 5, Workers: 1}
	ref, err := MeasureApproxPhase(class, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		opts MeasureOpts
	}{
		{"workers=4", MeasureOpts{Sizes: base.Sizes, TasksPerNode: 16, Repeats: 2, Seed: 5, Workers: 4}},
		{"engine=shard", MeasureOpts{Sizes: base.Sizes, TasksPerNode: 16, Repeats: 2, Seed: 5, Workers: 4, Engine: "shard"}},
		{"engine=cluster", MeasureOpts{Sizes: base.Sizes, TasksPerNode: 16, Repeats: 2, Seed: 5, Workers: 2, Engine: "cluster"}},
	} {
		got, err := MeasureApproxPhase(class, variant.opts)
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		if len(got.Points) != len(ref.Points) {
			t.Fatalf("%s: %d points, want %d", variant.name, len(got.Points), len(ref.Points))
		}
		for i := range ref.Points {
			if got.Points[i] != ref.Points[i] {
				t.Errorf("%s: point %d = %+v, want %+v", variant.name, i, got.Points[i], ref.Points[i])
			}
		}
		if got.FittedExponent != ref.FittedExponent || got.R2 != ref.R2 {
			t.Errorf("%s: fit (%g, %g), want (%g, %g)", variant.name,
				got.FittedExponent, got.R2, ref.FittedExponent, ref.R2)
		}
	}
}

func TestSweepCSV(t *testing.T) {
	res := SweepResult{
		Class:             "Test",
		FittedExponent:    1.5,
		PredictedExponent: 2,
		R2:                0.99,
		Points: []SweepPoint{
			{N: 8, M: 64, MeanRounds: 10, StdErr: 1, Predicted: 100, Repeats: 3},
			{N: 16, M: 128, MeanRounds: 40, StdErr: 2, Predicted: 400, Repeats: 3},
		},
	}
	csv := SweepCSV(res)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "class,n,m,") {
		t.Errorf("header %q", lines[0])
	}
	if !strings.Contains(lines[1], "Test,8,64,") {
		t.Errorf("row %q", lines[1])
	}
}

func TestCompareWeightedSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison in -short mode")
	}
	class, err := ClassByKey("complete")
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompareWeighted(class, 8, 16, 0.3, 2, 3, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Alg2Converged == 0 {
		t.Error("Algorithm 2 never converged")
	}
	out := FormatWeightedComparison(res)
	if !strings.Contains(out, "algorithm2") {
		t.Error("format missing protocol name")
	}
	// The shard engine runs Algorithm 2 (the baseline falls back to
	// seq); trajectories are engine-independent, so the comparison is
	// bit-identical.
	shardRes, err := CompareWeighted(class, 8, 16, 0.3, 2, 3, 2, "shard")
	if err != nil {
		t.Fatal(err)
	}
	if shardRes.Alg2Rounds != res.Alg2Rounds || shardRes.BaselineRounds != res.BaselineRounds {
		t.Errorf("shard comparison (%g, %g), want (%g, %g)",
			shardRes.Alg2Rounds, shardRes.BaselineRounds, res.Alg2Rounds, res.BaselineRounds)
	}
}

func TestMeasurePotentialDropSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("drop measurement in -short mode")
	}
	class, err := ClassByKey("complete")
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasurePotentialDrop(class, 12, 64, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanDropRatio <= 0 || res.MeanDropRatio >= 1 {
		t.Errorf("mean drop ratio %.4f outside (0,1)", res.MeanDropRatio)
	}
	// Lemma 3.13: the drop should be at least as fast as 1−1/γ on
	// average while above ψ_c.
	if res.MeanDropRatio > res.TheoryRatio+0.05 {
		t.Errorf("measured ratio %.4f slower than theory %.4f", res.MeanDropRatio, res.TheoryRatio)
	}
}

// TestMeasureDynamicSmall runs the dynamic steady-state experiment on a
// small instance and checks shape, determinism-relevant population and
// worker invariance of the rendered output.
func TestMeasureDynamicSmall(t *testing.T) {
	cfg := DynamicConfig{
		N: 8, TasksPerNode: 16, Horizon: 60, ChurnEvery: 25,
		Repeats: 2, Seed: 9, Engine: "seq",
	}
	cfg.Workers = 1
	one, err := MeasureDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != len(Table1Classes()) {
		t.Fatalf("%d cells, want %d", len(one), len(Table1Classes()))
	}
	for _, s := range one {
		if s.Repeats != 2 || s.Converged != 2 {
			t.Errorf("%s: repeats %d converged %d", s.Class, s.Repeats, s.Converged)
		}
		if s.ValueMean <= 0 {
			t.Errorf("%s: time-averaged Ψ₀ = %g, want > 0", s.Class, s.ValueMean)
		}
		if s.RoundsMean != float64(cfg.Horizon) {
			t.Errorf("%s: rounds %g, want %d", s.Class, s.RoundsMean, cfg.Horizon)
		}
	}
	cfg.Workers = 4
	four, err := MeasureDynamic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if harness.CSV(one) != harness.CSV(four) {
		t.Error("dynamic experiment output depends on worker count")
	}
}
