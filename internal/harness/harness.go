// Package harness is the concurrent experiment orchestrator: it expands
// a declarative job matrix (graph class × size × workload × engine ×
// seed × repetition) into independent simulation jobs, fans them over a
// bounded worker pool, folds the repetitions into per-cell streaming
// aggregates (Welford), and renders CSV or JSON.
//
// Determinism is a hard requirement: every job's randomness is fixed by
// a seed derived at expansion time, results are collected by job index,
// and the aggregation folds them in job order (cell-major,
// repetition-minor) — so the same matrix and seed produce byte-identical
// output regardless of the worker count.
//
// The package sits below internal/experiments (which declares the
// paper's evaluation as matrices) and above internal/core and
// internal/shard: the engine dispatchers RunUniformEngine and
// RunWeightedEngine run any cell on the sequential engine, the shard
// engine or the cluster, all through the shared core.Drive loop, so stop
// conditions and traces behave identically everywhere.
package harness

import (
	"errors"
	"fmt"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Cell identifies one aggregate coordinate of an experiment matrix: all
// repetitions sharing the coordinates are folded into one summary row.
type Cell struct {
	Class    string `json:"class"`
	N        int    `json:"n"`
	M        int64  `json:"m"`
	Workload string `json:"workload,omitempty"`
	Engine   string `json:"engine,omitempty"`
	Param    string `json:"param,omitempty"`
}

// Key returns the canonical coordinate string of the cell.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/n=%d/m=%d/%s/%s/%s", c.Class, c.N, c.M, c.Workload, c.Engine, c.Param)
}

// Result is one job's measured outcome.
type Result struct {
	// Rounds is the number of protocol rounds the run executed.
	Rounds float64
	// Moves is the total number of task migrations.
	Moves float64
	// Converged reports whether the run met its stop condition.
	Converged bool
	// Value is an optional experiment-specific metric (a ratio, a drop
	// factor, ...); it is aggregated like Rounds and Moves.
	Value float64
}

// CellSummary is the per-cell aggregate of a matrix execution.
type CellSummary struct {
	Cell
	Repeats      int     `json:"repeats"`
	Converged    int     `json:"converged"`
	RoundsMean   float64 `json:"roundsMean"`
	RoundsStdErr float64 `json:"roundsStdErr"`
	MovesMean    float64 `json:"movesMean"`
	MovesStdErr  float64 `json:"movesStdErr"`
	ValueMean    float64 `json:"valueMean"`
	ValueStdErr  float64 `json:"valueStdErr"`
}

// Matrix is a declarative experiment grid: Cells × Repeats jobs, each
// fully determined by a derived seed, executed concurrently by Execute.
type Matrix struct {
	// Cells are the aggregate coordinates; one summary row per cell.
	Cells []Cell
	// Repeats is the number of repetitions per cell (default 1).
	Repeats int
	// Seed is the base seed. Each job's seed is derived from
	// (Seed, cell index, repetition) through the rng keying, so the full
	// matrix is reproducible and jobs are statistically independent.
	Seed uint64
	// Workers bounds the number of concurrently running jobs
	// (≤ 0 means GOMAXPROCS).
	Workers int
	// Run executes repetition rep of Cells[ci]; seed fully determines
	// the run. It is called concurrently from the worker pool, so it
	// must not share mutable state across calls. Returning an error
	// aborts the whole matrix; expected non-convergence should instead
	// be reported as a Result with Converged=false.
	Run func(ci, rep int, seed uint64) (Result, error)
}

// Execute runs the matrix over the worker pool and returns one summary
// per cell, in cell order. The repetition fold is performed in job order
// after all jobs finish, so the summaries (and any output rendered from
// them) are independent of Workers.
func (m Matrix) Execute() ([]CellSummary, error) {
	if m.Run == nil {
		return nil, errors.New("harness: Matrix.Run is nil")
	}
	if len(m.Cells) == 0 {
		return nil, nil
	}
	repeats := m.Repeats
	if repeats <= 0 {
		repeats = 1
	}
	type job struct {
		ci, rep int
		seed    uint64
	}
	base := rng.New(m.Seed)
	jobs := make([]job, 0, len(m.Cells)*repeats)
	for ci := range m.Cells {
		for rep := 0; rep < repeats; rep++ {
			jobs = append(jobs, job{ci: ci, rep: rep, seed: base.At(uint64(ci), uint64(rep)).Uint64()})
		}
	}
	results := make([]Result, len(jobs))
	err := ForEach(len(jobs), m.Workers, func(k int) error {
		j := jobs[k]
		r, err := m.Run(j.ci, j.rep, j.seed)
		if err != nil {
			return fmt.Errorf("cell %s rep %d: %w", m.Cells[j.ci].Key(), j.rep, err)
		}
		results[k] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	type agg struct {
		rounds, moves, value stats.Welford
		converged, n         int
	}
	aggs := make([]agg, len(m.Cells))
	for k, r := range results {
		a := &aggs[jobs[k].ci]
		a.rounds.Add(r.Rounds)
		a.moves.Add(r.Moves)
		a.value.Add(r.Value)
		if r.Converged {
			a.converged++
		}
		a.n++
	}
	sums := make([]CellSummary, len(m.Cells))
	for ci := range m.Cells {
		a := &aggs[ci]
		sums[ci] = CellSummary{
			Cell:         m.Cells[ci],
			Repeats:      a.n,
			Converged:    a.converged,
			RoundsMean:   a.rounds.Mean(),
			RoundsStdErr: a.rounds.StdErr(),
			MovesMean:    a.moves.Mean(),
			MovesStdErr:  a.moves.StdErr(),
			ValueMean:    a.value.Mean(),
			ValueStdErr:  a.value.StdErr(),
		}
	}
	return sums, nil
}
