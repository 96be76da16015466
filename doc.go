// Package repro is the root of a reproduction of Adolphs & Berenbrink,
// "Distributed Selfish Load Balancing with Weights and Speeds"
// (PODC 2012). The library lives under internal/ (core: the protocols
// and potential-function analysis; shard: the parallel and distributed
// engines; graph, spectral, matrix, rng, machine, task, workload,
// stats, diffusion, experiments: the substrates), executables under cmd/, runnable examples under
// examples/, and bench_test.go in this package regenerates the paper's
// Table 1. See README.md, DESIGN.md and EXPERIMENTS.md.
package repro
