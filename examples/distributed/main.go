// Command distributed runs the protocol on a coordinator/worker cluster:
// the network is split into shards, each owned by a worker that speaks
// the length-prefixed wire protocol over its own in-memory connection
// (net.Pipe), so every round's loads, migrations and barriers travel as
// encoded frames — the same protocol cmd/lbshard runs across processes.
// It then verifies that the distributed execution reproduces the
// sequential engine's trajectory bit-for-bit under the same seed (node
// i's round-r randomness depends only on (seed, r, i)).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/spectral"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const side = 6
	g, err := graph.Torus(side, side)
	if err != nil {
		return err
	}
	n := g.N()
	speeds, err := machine.TwoClass(n, 0.25, 2)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(g, speeds, core.WithLambda2(spectral.Lambda2Torus(side, side)))
	if err != nil {
		return err
	}
	const m = 18000
	counts, err := workload.AllOnOne(n, m, 0)
	if err != nil {
		return err
	}

	// Cluster: one coordinator and shards workers, each behind a pipe.
	const shards = 4
	cl, err := shard.StartLocalUniformCluster(sys, core.Algorithm1{}, counts, shard.Options{Shards: shards})
	if err != nil {
		return err
	}
	defer cl.Close()

	// The cluster is a core.Engine, so the shared driver gives it stop
	// conditions and potential tracing exactly like the sequential
	// engine — one Drive call replaces a bespoke run loop.
	const seed = 7
	fmt.Printf("network: %s on %d wire-protocol workers\n", g, shards)
	res, err := core.Drive[*core.UniformState](cl, core.StopAtNash(),
		core.RunOpts{MaxRounds: 500_000, Seed: seed, TraceEvery: 2000})
	if err != nil {
		return err
	}
	rounds := res.Rounds
	fmt.Printf("cluster: exact NE after %d rounds (converged=%v, %d moves)\n", rounds, res.Converged, res.Moves)
	for _, p := range res.Trace {
		fmt.Printf("trace:   round %6d  Ψ₀=%-12.4g L_Δ=%.3f\n", p.Round, p.Psi0, p.LDelta)
	}

	// Replay sequentially with the same seed and compare trajectories.
	seq, err := core.NewUniformState(sys, counts)
	if err != nil {
		return err
	}
	base := rng.New(seed)
	proto := core.Algorithm1{}
	for r := 1; r <= rounds; r++ {
		proto.Step(seq, uint64(r), base)
	}
	final, err := cl.Counts()
	if err != nil {
		return err
	}
	mismatch := 0
	for i, c := range final {
		if c != seq.Count(i) {
			mismatch++
		}
	}
	if mismatch == 0 {
		fmt.Println("replay:  sequential engine reproduced the concurrent trajectory exactly")
	} else {
		fmt.Printf("replay:  %d nodes differ (unexpected!)\n", mismatch)
	}

	st, err := cl.State()
	if err != nil {
		return err
	}
	fmt.Printf("final:   Ψ₀=%.3g, L_Δ=%.3f, NE=%v\n", core.Psi0(st), core.LDelta(st), core.IsNash(st))
	return nil
}
