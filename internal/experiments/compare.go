package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/workload"
)

// WeightedComparison is the result of racing Algorithm 2 against the
// reconstructed [6] baseline on identical weighted instances (E6).
type WeightedComparison struct {
	Class            string  `json:"class"`
	N                int     `json:"n"`
	M                int     `json:"m"`
	Alg2Rounds       float64 `json:"alg2Rounds"`
	Alg2StdErr       float64 `json:"alg2StdErr"`
	BaselineRounds   float64 `json:"baselineRounds"`
	BaselineStdErr   float64 `json:"baselineStdErr"`
	Alg2Converged    int     `json:"alg2Converged"`
	BaseConverged    int     `json:"baselineConverged"`
	Repeats          int     `json:"repeats"`
	StopEpsilon      float64 `json:"stopEpsilon"`
	SpeedMax         float64 `json:"speedMax"`
	PredictedAlg2    float64 `json:"predictedAlg2Rounds"`
	RoundsRatioB2A   float64 `json:"baselineOverAlg2"`
	WeightDistString string  `json:"weightDist"`
}

// CompareWeighted races Algorithm 2 against the [6]-style baseline until
// both reach an ε-approximate NE, from the same initial placements. The
// protocol axis × repetitions form a harness matrix executed over
// workers concurrent jobs (≤ 0 means GOMAXPROCS); placements and run
// seeds depend only on (seed, repetition), so both protocols see
// identical instances and the result is independent of workers. engine
// ("" means seq) selects the execution engine per protocol run; a
// protocol the engine cannot execute (the baseline does not decide
// against flat state) falls back to seq, which is trajectory-
// neutral — every engine runs the identical trajectory.
func CompareWeighted(class GraphClass, n, tasksPerNode int, eps float64, repeats int, seed uint64, workers int, engine string) (WeightedComparison, error) {
	g, err := class.Build(n)
	if err != nil {
		return WeightedComparison{}, err
	}
	actualN := g.N()
	m := tasksPerNode * actualN
	stream := rng.New(seed)
	speeds, err := machine.RandomIntegers(actualN, 4, stream.Split(1))
	if err != nil {
		return WeightedComparison{}, err
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(class.Lambda2(g)))
	if err != nil {
		return WeightedComparison{}, err
	}
	res := WeightedComparison{
		Class: class.Display, N: actualN, M: m,
		Repeats: repeats, StopEpsilon: eps, SpeedMax: speeds.Max(),
		PredictedAlg2:    sys.WeightedApproxPhaseRounds(int64(m)),
		WeightDistString: "uniform(0.1,1.0)",
	}
	const maxRounds = 2_000_000
	if engine == "" {
		engine = harness.EngineSeq
	}
	protos := []core.WeightedProtocol{core.Algorithm2{}, core.BaselineWeighted{}}
	engines := make([]string, len(protos))
	cells := make([]harness.Cell, len(protos))
	for ci, p := range protos {
		engines[ci] = engine
		if !harness.WeightedEngineSupports(engine, p) {
			engines[ci] = harness.EngineSeq
		}
		cells[ci] = harness.Cell{
			Class: class.Key, N: actualN, M: int64(m),
			Workload: "weighted-random", Engine: engines[ci],
			Param: "proto=" + p.Name(),
		}
	}
	mx := harness.Matrix{
		Cells: cells, Repeats: repeats, Seed: seed, Workers: workers,
		Run: func(ci, rep int, _ uint64) (harness.Result, error) {
			// Derive the instance from (seed, rep) only — Split reads the
			// parent's immutable identity, so concurrent jobs are safe and
			// both protocols start from identical placements.
			weights, err := task.RandomWeights(m, 0.1, 1.0, stream.Split(uint64(100+rep)))
			if err != nil {
				return harness.Result{}, err
			}
			placement, err := workload.WeightedUniformRandom(actualN, weights, stream.Split(uint64(200+rep)))
			if err != nil {
				return harness.Result{}, err
			}
			run, _, err := harness.RunWeightedEngine(engines[ci], sys, protos[ci], placement,
				core.StopAtWeightedApproxNash(eps), core.RunOpts{
					MaxRounds: maxRounds, Seed: seed + uint64(rep), CheckEvery: 4,
				})
			if err != nil && !errors.Is(err, core.ErrMaxRounds) {
				return harness.Result{}, err
			}
			return harness.Result{Rounds: float64(run.Rounds), Moves: float64(run.Moves), Converged: err == nil}, nil
		},
	}
	sums, err := mx.Execute()
	if err != nil {
		return res, err
	}
	res.Alg2Rounds, res.Alg2StdErr, res.Alg2Converged = sums[0].RoundsMean, sums[0].RoundsStdErr, sums[0].Converged
	res.BaselineRounds, res.BaselineStdErr, res.BaseConverged = sums[1].RoundsMean, sums[1].RoundsStdErr, sums[1].Converged
	if res.Alg2Rounds > 0 {
		res.RoundsRatioB2A = res.BaselineRounds / res.Alg2Rounds
	}
	return res, nil
}

// FormatWeightedComparison renders the comparison row.
func FormatWeightedComparison(c WeightedComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s n=%d m=%d (eps=%.3g, smax=%g, %s)\n",
		c.Class, c.N, c.M, c.StopEpsilon, c.SpeedMax, c.WeightDistString)
	fmt.Fprintf(&b, "  algorithm2: %.1f ± %.1f rounds (%d/%d converged; theory ≤ %.0f)\n",
		c.Alg2Rounds, c.Alg2StdErr, c.Alg2Converged, c.Repeats, c.PredictedAlg2)
	fmt.Fprintf(&b, "  baseline[6]: %.1f ± %.1f rounds (%d/%d converged)\n",
		c.BaselineRounds, c.BaselineStdErr, c.BaseConverged, c.Repeats)
	fmt.Fprintf(&b, "  ratio baseline/alg2 = %.2f\n", c.RoundsRatioB2A)
	return b.String()
}

// DropPoint is one observation of the per-round multiplicative potential
// drop (E7, Lemma 3.13: E[Ψ₀(t+1)] ≤ (1−1/γ)·E[Ψ₀(t)] while above ψ_c).
type DropPoint struct {
	Round     int     `json:"round"`
	Psi0      float64 `json:"psi0"`
	DropRatio float64 `json:"dropRatio"` // Ψ₀(t+1)/Ψ₀(t)
}

// PotentialDropResult compares measured drop ratios with 1−1/γ.
type PotentialDropResult struct {
	Class         string      `json:"class"`
	N             int         `json:"n"`
	Gamma         float64     `json:"gamma"`
	TheoryRatio   float64     `json:"theoryRatio"` // 1−1/γ
	MeanDropRatio float64     `json:"meanDropRatio"`
	Points        []DropPoint `json:"points,omitempty"`
}

// MeasurePotentialDrop traces Ψ₀ round by round from the all-on-one start
// while Ψ₀ > ψ_c and reports the mean per-round multiplicative drop.
func MeasurePotentialDrop(class GraphClass, n, tasksPerNode int, seed uint64, keepPoints bool) (PotentialDropResult, error) {
	g, err := class.Build(n)
	if err != nil {
		return PotentialDropResult{}, err
	}
	actualN := g.N()
	m := int64(tasksPerNode) * int64(actualN)
	sys, err := core.NewSystem(g, machine.Uniform(actualN), core.WithLambda2(class.Lambda2(g)))
	if err != nil {
		return PotentialDropResult{}, err
	}
	res := PotentialDropResult{
		Class: class.Display, N: actualN,
		Gamma:       sys.Gamma(),
		TheoryRatio: 1 - 1/sys.Gamma(),
	}
	counts, err := workload.AllOnOne(actualN, m, 0)
	if err != nil {
		return res, err
	}
	st, err := core.NewUniformState(sys, counts)
	if err != nil {
		return res, err
	}
	proto := core.Algorithm1{}
	base := rng.New(seed)
	psiC := sys.PsiCritical()
	prev := core.Psi0(st)
	var agg stats.Welford
	for round := uint64(1); round < 10_000_000; round++ {
		proto.Step(st, round, base)
		cur := core.Psi0(st)
		if prev > psiC && prev > 0 {
			ratio := cur / prev
			agg.Add(ratio)
			if keepPoints {
				res.Points = append(res.Points, DropPoint{Round: int(round), Psi0: cur, DropRatio: ratio})
			}
		}
		if cur <= psiC {
			break
		}
		prev = cur
	}
	res.MeanDropRatio = agg.Mean()
	return res, nil
}
