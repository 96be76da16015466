package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// BoundsRow is one analytic Table-1 row: the paper's asymptotic columns
// evaluated at a concrete (n, m), plus the exact theorem bounds computed
// from the instance's actual λ₂ and Δ.
type BoundsRow struct {
	Class        string  `json:"class"`
	N            int     `json:"n"`
	M            int64   `json:"m"`
	Lambda2      float64 `json:"lambda2"`
	MaxDegree    int     `json:"maxDegree"`
	OursApprox   string  `json:"oursApproxFormula"`
	OursApproxV  float64 `json:"oursApproxValue"`
	BaseApprox   string  `json:"baselineApproxFormula"`
	BaseApproxV  float64 `json:"baselineApproxValue"`
	OursExact    string  `json:"oursExactFormula"`
	OursExactV   float64 `json:"oursExactValue"`
	BaseExact    string  `json:"baselineExactFormula"`
	BaseExactV   float64 `json:"baselineExactValue"`
	TheoremT11   float64 `json:"theorem11Rounds"` // 2·2γ·ln(m/n) with actual λ₂
	TheoremT12   float64 `json:"theorem12Rounds"` // 607·Δ²·s⁴max/ε̄²·n/λ₂
	GainApprox   float64 `json:"gainApprox"`      // baseline/ours, asymptotic values
	GainExact    float64 `json:"gainExact"`
	InstanceName string  `json:"instance"`
}

// BoundsTable evaluates Table 1 analytically for the given size and task
// count, with uniform speeds (the table omits speed factors).
func BoundsTable(n int, m int64) ([]BoundsRow, error) {
	rows := make([]BoundsRow, 0, 4)
	for _, c := range Table1Classes() {
		g, err := c.Build(n)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", c.Key, err)
		}
		actualN := g.N()
		lambda2 := c.Lambda2(g)
		sys, err := core.NewSystem(g, machine.Uniform(actualN), core.WithLambda2(lambda2))
		if err != nil {
			return nil, fmt.Errorf("system %s: %w", c.Key, err)
		}
		row := BoundsRow{
			Class:        c.Display,
			N:            actualN,
			M:            m,
			Lambda2:      lambda2,
			MaxDegree:    g.MaxDegree(),
			OursApprox:   c.OursApprox,
			OursApproxV:  c.OursApproxVal(actualN, m),
			BaseApprox:   c.BaselineApprox,
			BaseApproxV:  c.BaselineApproxVal(actualN, m),
			OursExact:    c.OursExact,
			OursExactV:   c.OursExactVal(actualN),
			BaseExact:    c.BaselineExact,
			BaseExactV:   c.BaselineExactVal(actualN),
			TheoremT11:   2 * sys.ApproxPhaseRounds(m),
			TheoremT12:   sys.ExactPhaseRounds(1),
			InstanceName: g.Name(),
		}
		if row.OursApproxV > 0 {
			row.GainApprox = row.BaseApproxV / row.OursApproxV
		}
		if row.OursExactV > 0 {
			row.GainExact = row.BaseExactV / row.OursExactV
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatBoundsTable renders rows in the layout of the paper's Table 1.
func FormatBoundsTable(rows []BoundsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-22s %-22s %-22s %-22s\n", "Graph",
		"eps-NE (this paper)", "eps-NE [6]", "NE (this paper)", "NE [6]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-22s %-22s %-22s %-22s\n", r.Class,
			fmt.Sprintf("%s = %.3g", r.OursApprox, r.OursApproxV),
			fmt.Sprintf("%s = %.3g", r.BaseApprox, r.BaseApproxV),
			fmt.Sprintf("%s = %.3g", r.OursExact, r.OursExactV),
			fmt.Sprintf("%s = %.3g", r.BaseExact, r.BaseExactV))
	}
	return b.String()
}

// SweepPoint is one (n, measured rounds) observation of a size sweep.
type SweepPoint struct {
	N          int     `json:"n"`
	M          int64   `json:"m"`
	MeanRounds float64 `json:"meanRounds"`
	StdErr     float64 `json:"stdErr"`
	Predicted  float64 `json:"predictedRounds"`
	Repeats    int     `json:"repeats"`
}

// SweepResult is a fitted size sweep for one graph class.
type SweepResult struct {
	Class             string       `json:"class"`
	Points            []SweepPoint `json:"points"`
	FittedExponent    float64      `json:"fittedExponent"`
	PredictedExponent float64      `json:"predictedExponent"`
	R2                float64      `json:"r2"`
}

// MeasureOpts configures an empirical sweep.
type MeasureOpts struct {
	// Sizes are the target vertex counts.
	Sizes []int
	// TasksPerNode sets m = TasksPerNode·n (default 64).
	TasksPerNode int
	// Repeats per size (default 3).
	Repeats int
	// Seed for reproducibility.
	Seed uint64
	// MaxRounds safety cap per run (0 means the sweep family's default).
	MaxRounds int
	// Workers bounds the number of concurrently executing repetitions
	// (≤ 0 means GOMAXPROCS). Results are identical for any value.
	Workers int
	// Engine selects the execution engine per run — seq, shard or
	// cluster (default seq). All engines run through the shared driver
	// and produce identical trajectories.
	Engine string
}

func (o *MeasureOpts) defaults() {
	if o.TasksPerNode <= 0 {
		o.TasksPerNode = 64
	}
	if o.Repeats <= 0 {
		o.Repeats = 3
	}
}

// phaseSpec parameterizes one empirical sweep family: stop condition,
// theory prediction per instance, safety cap, and the predicted log–log
// scaling exponent. The three Measure* entry points are thin wrappers
// over measureSweep with different specs.
type phaseSpec struct {
	name       string
	defaultMax int
	// seedSalt decorrelates the sweep families: with the same
	// MeasureOpts.Seed, the approx-phase, approx-NE and exact-NE sweeps
	// must draw independent trajectories, not replay each other.
	seedSalt  uint64
	exponent  func(GraphClass) float64
	stop      func(sys *core.System) core.UniformStop
	predicted func(sys *core.System, m int64) float64
}

// measureSweep measures, for one graph class, the rounds needed from the
// all-on-one start until the spec's stop condition fires, over a size
// sweep with concurrently executed repetitions, and fits the log–log
// scaling exponent. One harness cell per size; repetitions fan out over
// the worker pool.
func measureSweep(class GraphClass, opts MeasureOpts, sp phaseSpec) (SweepResult, error) {
	opts.defaults()
	res := SweepResult{Class: class.Display, PredictedExponent: sp.exponent(class)}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = sp.defaultMax
	}
	type inst struct {
		sys       *core.System
		stop      core.UniformStop
		predicted float64
	}
	insts := make([]inst, 0, len(opts.Sizes))
	cells := make([]harness.Cell, 0, len(opts.Sizes))
	for _, n := range opts.Sizes {
		g, err := class.Build(n)
		if err != nil {
			return res, fmt.Errorf("build %s(%d): %w", class.Key, n, err)
		}
		actualN := g.N()
		m := int64(opts.TasksPerNode) * int64(actualN)
		sys, err := core.NewSystem(g, machine.Uniform(actualN), core.WithLambda2(class.Lambda2(g)))
		if err != nil {
			return res, err
		}
		insts = append(insts, inst{sys: sys, stop: sp.stop(sys), predicted: sp.predicted(sys, m)})
		cells = append(cells, harness.Cell{
			Class: class.Key, N: actualN, M: m,
			Workload: "allonone", Engine: opts.Engine, Param: sp.name,
		})
	}
	mx := harness.Matrix{
		Cells: cells, Repeats: opts.Repeats, Seed: opts.Seed + sp.seedSalt, Workers: opts.Workers,
		Run: func(ci, rep int, seed uint64) (harness.Result, error) {
			in, cell := insts[ci], cells[ci]
			counts, err := workload.AllOnOne(cell.N, cell.M, 0)
			if err != nil {
				return harness.Result{}, err
			}
			run, _, err := harness.RunUniformEngine(cell.Engine, in.sys, core.Algorithm1{}, counts, in.stop, core.RunOpts{
				MaxRounds: maxRounds, Seed: seed, CheckEvery: 1,
			})
			if err != nil {
				return harness.Result{}, err
			}
			return harness.Result{Rounds: float64(run.Rounds), Moves: float64(run.Moves), Converged: run.Converged}, nil
		},
	}
	sums, err := mx.Execute()
	if err != nil {
		return res, err
	}
	var xs, ys []float64
	for si, s := range sums {
		point := SweepPoint{
			N: s.N, M: s.M,
			MeanRounds: s.RoundsMean, StdErr: s.RoundsStdErr,
			Predicted: insts[si].predicted,
			Repeats:   s.Repeats,
		}
		res.Points = append(res.Points, point)
		xs = append(xs, float64(s.N))
		ys = append(ys, maxf(point.MeanRounds, 1))
	}
	if len(xs) >= 2 {
		exp, _, r2, err := stats.FitPowerLaw(xs, ys)
		if err == nil {
			res.FittedExponent = exp
			res.R2 = r2
		}
	}
	return res, nil
}

// MeasureApproxPhase measures, for one graph class, the rounds needed
// from the all-on-one start until Ψ₀ ≤ 4·ψ_c — the phase bounded by
// Theorem 1.1 — over a size sweep, and fits the log–log scaling exponent.
func MeasureApproxPhase(class GraphClass, opts MeasureOpts) (SweepResult, error) {
	return measureSweep(class, opts, phaseSpec{
		name:       "approx-phase",
		defaultMax: 4_000_000,
		exponent:   func(c GraphClass) float64 { return c.ApproxExponent },
		stop: func(sys *core.System) core.UniformStop {
			return core.StopAtPsi0Below(4 * sys.PsiCritical())
		},
		predicted: func(sys *core.System, m int64) float64 { return 2 * sys.ApproxPhaseRounds(m) },
	})
}

// MeasureApproxNE measures rounds from the all-on-one start until the
// state is an ε-approximate Nash equilibrium with fixed ε. Unlike the
// Ψ₀ ≤ 4ψ_c stopping rule (whose threshold itself scales with n³/λ₂ and
// therefore masks the graph-dependent factor on low-connectivity
// graphs), a fixed ε exposes the Δ/λ₂ scaling of Theorem 1.1 directly:
// ln(m/n)·Δ/λ₂ is Θ(ln m) on the complete graph, Θ(n·ln) on the torus,
// Θ(n²·ln) on the ring and Θ(ln n·ln) on the hypercube.
func MeasureApproxNE(class GraphClass, eps float64, opts MeasureOpts) (SweepResult, error) {
	return measureSweep(class, opts, phaseSpec{
		name:       fmt.Sprintf("%g-approx-ne", eps),
		defaultMax: 8_000_000,
		seedSalt:   13,
		exponent:   func(c GraphClass) float64 { return c.ApproxExponent },
		stop: func(sys *core.System) core.UniformStop {
			return core.StopAtApproxNash(eps)
		},
		predicted: func(sys *core.System, m int64) float64 { return 2 * sys.ApproxPhaseRounds(m) },
	})
}

// MeasureExactPhase measures rounds from the all-on-one start to an
// exact Nash equilibrium (uniform speeds, so granularity ε̄ = 1) and fits
// the scaling exponent against the Theorem 1.2 prediction.
func MeasureExactPhase(class GraphClass, opts MeasureOpts) (SweepResult, error) {
	return measureSweep(class, opts, phaseSpec{
		name:       "exact-ne",
		defaultMax: 8_000_000,
		seedSalt:   7,
		exponent:   func(c GraphClass) float64 { return c.ExactExponent },
		stop: func(sys *core.System) core.UniformStop {
			return core.StopAtNash()
		},
		predicted: func(sys *core.System, m int64) float64 { return sys.ExactPhaseRounds(1) },
	})
}

// SweepCSV renders a sweep result as CSV (one row per size).
func SweepCSV(res SweepResult) string {
	var b strings.Builder
	b.WriteString("class,n,m,mean_rounds,stderr,theory_bound,fitted_exponent,predicted_exponent,r2\n")
	for _, p := range res.Points {
		fmt.Fprintf(&b, "%s,%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f\n",
			res.Class, p.N, p.M, p.MeanRounds, p.StdErr, p.Predicted,
			res.FittedExponent, res.PredictedExponent, res.R2)
	}
	return b.String()
}

// FormatSweep renders a sweep result as an aligned text table.
func FormatSweep(res SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: fitted exponent %.2f (predicted %.2f, R²=%.3f)\n",
		res.Class, res.FittedExponent, res.PredictedExponent, res.R2)
	fmt.Fprintf(&b, "  %8s %10s %14s %12s %14s\n", "n", "m", "rounds(mean)", "stderr", "theory-bound")
	for _, p := range res.Points {
		fmt.Fprintf(&b, "  %8d %10d %14.1f %12.2f %14.1f\n", p.N, p.M, p.MeanRounds, p.StdErr, p.Predicted)
	}
	return b.String()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
