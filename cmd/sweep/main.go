// Command sweep runs the auxiliary experiments of the reproduction
// (beyond Table 1) and emits CSV:
//
//   - drop:        per-round Ψ₀ multiplicative drop vs 1−1/γ (Lemma 3.13)
//   - granularity: exact-NE rounds vs speed granularity ε̄ (Theorem 1.2)
//   - weighted:    Algorithm 2 vs the [6] baseline on weighted instances
//   - diffusion:   protocol mean trajectory vs expected-flow diffusion
//   - dynamic:     steady-state Ψ₀ under online arrivals/departures/churn
//
// All experiments fan their independent repetitions over the concurrent
// harness worker pool; -workers bounds the parallelism (0 = all cores)
// and the output is byte-identical for any worker count.
//
// Example:
//
//	sweep -experiment granularity -n 16 -seed 3 -workers 4
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		experiment = flag.String("experiment", "drop", "drop|granularity|weighted|diffusion|dynamic")
		n          = flag.Int("n", 16, "instance size")
		tpn        = flag.Int("taskspernode", 64, "tasks per node")
		seed       = flag.Uint64("seed", 1, "random seed")
		repeats    = flag.Int("repeats", 3, "repetitions")
		workers    = flag.Int("workers", 0, "concurrent jobs (0 = all cores)")
		horizon    = flag.Int("horizon", 400, "dynamic: rounds of continuous traffic")
		churnEvery = flag.Int("churnevery", 0, "dynamic: leave/join every k rounds (0 = no churn)")
		engine     = flag.String("engine", "seq", "dynamic/weighted: execution engine seq|shard|cluster (see the engine matrix in README.md; identical trajectories)")
	)
	flag.Parse()

	switch *experiment {
	case "drop":
		return runDrop(*n, *tpn, *seed, *workers)
	case "granularity":
		return runGranularity(*n, *tpn, *seed, *repeats, *workers)
	case "weighted":
		return runWeightedComparison(*n, *tpn, *seed, *repeats, *workers, *engine)
	case "diffusion":
		return runDiffusion(*n, *tpn, *seed, *workers)
	case "dynamic":
		return runDynamic(experiments.DynamicConfig{
			N: *n, TasksPerNode: *tpn, Horizon: *horizon, ChurnEvery: *churnEvery,
			Repeats: *repeats, Seed: *seed, Engine: *engine, Workers: *workers,
		})
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
}

// runDynamic prints the steady-state summary and the CSV rows of the
// dynamic workload matrix.
func runDynamic(cfg experiments.DynamicConfig) error {
	sums, err := experiments.MeasureDynamic(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatDynamic(sums))
	fmt.Print(harness.CSV(sums))
	return nil
}

// runDrop traces the four classes concurrently (one job per class) and
// prints the rows in class order.
func runDrop(n, tpn int, seed uint64, workers int) error {
	classes := experiments.Table1Classes()
	results := make([]experiments.PotentialDropResult, len(classes))
	err := harness.ForEach(len(classes), workers, func(i int) error {
		res, err := experiments.MeasurePotentialDrop(classes[i], n, tpn, seed, false)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Println("class,n,gamma,theory_ratio,measured_ratio")
	for i, class := range classes {
		res := results[i]
		fmt.Printf("%s,%d,%.2f,%.6f,%.6f\n", class.Key, res.N, res.Gamma, res.TheoryRatio, res.MeanDropRatio)
	}
	return nil
}

// runGranularity measures exact-NE convergence as the speed granularity
// ε̄ shrinks (Theorem 1.2 predicts rounds ∝ 1/ε̄² in the worst case). The
// ε values × repetitions form one harness matrix.
func runGranularity(n, tpn int, seed uint64, repeats, workers int) error {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		return err
	}
	g, err := class.Build(n)
	if err != nil {
		return err
	}
	actualN := g.N()
	m := int64(tpn) * int64(actualN)
	type inst struct {
		sys              *core.System
		actualEps, alpha float64
	}
	epsTargets := []float64{1, 0.5, 0.25}
	insts := make([]inst, len(epsTargets))
	cells := make([]harness.Cell, len(epsTargets))
	for ei, eps := range epsTargets {
		speeds, err := machine.Granular(actualN, eps, 4, rng.New(seed))
		if err != nil {
			return err
		}
		sys, err := core.NewSystem(g, speeds, core.WithLambda2(class.Lambda2(g)))
		if err != nil {
			return err
		}
		actualEps, err := speeds.Granularity(1e-9)
		if err != nil {
			return err
		}
		alpha, err := sys.AlphaForGranularity(actualEps)
		if err != nil {
			return err
		}
		insts[ei] = inst{sys: sys, actualEps: actualEps, alpha: alpha}
		cells[ei] = harness.Cell{
			Class: class.Key, N: actualN, M: m,
			Workload: "allonone", Engine: harness.EngineSeq,
			Param: fmt.Sprintf("eps=%.3g", actualEps),
		}
	}
	mx := harness.Matrix{
		Cells: cells, Repeats: repeats, Seed: seed, Workers: workers,
		Run: func(ci, rep int, jobSeed uint64) (harness.Result, error) {
			in := insts[ci]
			counts, err := workload.AllOnOne(actualN, m, 0)
			if err != nil {
				return harness.Result{}, err
			}
			run, _, err := harness.RunUniformEngine(harness.EngineSeq, in.sys,
				core.Algorithm1{Alpha: in.alpha}, counts, core.StopAtNash(),
				core.RunOpts{MaxRounds: 20_000_000, Seed: jobSeed, CheckEvery: 4})
			if err != nil {
				return harness.Result{}, err
			}
			return harness.Result{Rounds: float64(run.Rounds), Moves: float64(run.Moves), Converged: run.Converged}, nil
		},
	}
	sums, err := mx.Execute()
	if err != nil {
		return err
	}
	fmt.Println("epsilon,alpha,mean_rounds,stderr,theory_bound")
	for ei, s := range sums {
		in := insts[ei]
		fmt.Printf("%.3g,%.3g,%.1f,%.2f,%.3g\n",
			in.actualEps, in.alpha, s.RoundsMean, s.RoundsStdErr, in.sys.ExactPhaseRounds(in.actualEps))
	}
	return nil
}

func runWeightedComparison(n, tpn int, seed uint64, repeats, workers int, engine string) error {
	fmt.Println("class,n,m,alg2_rounds,alg2_stderr,baseline_rounds,baseline_stderr,ratio")
	for _, class := range experiments.Table1Classes() {
		res, err := experiments.CompareWeighted(class, n, tpn, 0.25, repeats, seed, workers, engine)
		if err != nil {
			return err
		}
		fmt.Printf("%s,%d,%d,%.1f,%.2f,%.1f,%.2f,%.3f\n",
			class.Key, res.N, res.M, res.Alg2Rounds, res.Alg2StdErr,
			res.BaselineRounds, res.BaselineStdErr, res.RoundsRatioB2A)
	}
	return nil
}

// runDiffusion compares the protocol's empirical mean trajectory with the
// deterministic expected-flow diffusion (the paper: "in expectation, our
// protocols mimic continuous diffusion"). The (rounds, trial) grid fans
// out over the pool; the per-rounds mean is folded in trial order so the
// output does not depend on the worker count.
func runDiffusion(n, tpn int, seed uint64, workers int) error {
	class, err := experiments.ClassByKey("torus")
	if err != nil {
		return err
	}
	g, err := class.Build(n)
	if err != nil {
		return err
	}
	actualN := g.N()
	m := int64(tpn) * int64(actualN)
	sys, err := core.NewSystem(g, machine.Uniform(actualN), core.WithLambda2(class.Lambda2(g)))
	if err != nil {
		return err
	}
	counts, err := workload.AllOnOne(actualN, m, 0)
	if err != nil {
		return err
	}
	x := make([]float64, actualN)
	for i, c := range counts {
		x[i] = float64(c)
	}
	const trials = 200
	roundsList := []int{1, 2, 5, 10, 20, 50}
	vecs := make([][]float64, len(roundsList)*trials)
	err = harness.ForEach(len(vecs), workers, func(k int) error {
		ri, trial := k/trials, k%trials
		st, err := core.NewUniformState(sys, counts)
		if err != nil {
			return err
		}
		base := rng.New(seed + uint64(trial))
		proto := core.Algorithm1{}
		for r := uint64(1); r <= uint64(roundsList[ri]); r++ {
			proto.Step(st, r, base)
		}
		v := make([]float64, actualN)
		for i := range v {
			v[i] = float64(st.Count(i))
		}
		vecs[k] = v
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Println("round,mean_l2_distance,drift_norm")
	for ri, rounds := range roundsList {
		drift, err := diffusion.ExpectedFlow(sys, x, 0, rounds)
		if err != nil {
			return err
		}
		meanEnd := make([]float64, actualN)
		for trial := 0; trial < trials; trial++ {
			for i, v := range vecs[ri*trials+trial] {
				meanEnd[i] += v
			}
		}
		dist, norm := 0.0, 0.0
		for i := range meanEnd {
			meanEnd[i] /= trials
			d := meanEnd[i] - drift[i]
			dist += d * d
			norm += drift[i] * drift[i]
		}
		fmt.Printf("%d,%.4f,%.1f\n", rounds, math.Sqrt(dist), math.Sqrt(norm))
	}
	return nil
}
