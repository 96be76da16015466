package core

import (
	"math"

	"repro/internal/rng"
)

// RunBlocks implements the amplification scheme of Corollaries 3.18 and
// 3.27: execute up to maxBlocks blocks of blockRounds protocol rounds,
// checking the stop predicate after each block. By Lemma 3.15 each block
// independently succeeds with probability ≥ 3/4 from any start, so after
// c·log₄(n) blocks the success probability is ≥ 1 − 1/n^c.
//
// It returns the 1-based index of the block after which stop held, the
// total rounds executed, and whether it succeeded.
func RunBlocks(st *UniformState, p UniformProtocol, stop UniformStop, blockRounds, maxBlocks int, seed uint64) (block, rounds int, ok bool, err error) {
	if blockRounds <= 0 || maxBlocks <= 0 {
		return 0, 0, false, ErrMaxRounds
	}
	if stop != nil && stop(st) {
		return 0, 0, true, nil
	}
	base := rng.New(seed)
	round := uint64(0)
	for b := 1; b <= maxBlocks; b++ {
		for k := 0; k < blockRounds; k++ {
			round++
			p.Step(st, round, base)
		}
		rounds = int(round)
		if stop != nil && stop(st) {
			return b, rounds, true, nil
		}
	}
	return maxBlocks, rounds, stop == nil, nil
}

// BlocksForConfidence returns the number of T-round blocks needed for
// success probability ≥ 1 − 1/n^c per Corollary 3.18: ⌈c·log₄(n)⌉.
func BlocksForConfidence(n int, c float64) int {
	if n < 2 || c <= 0 {
		return 1
	}
	log4 := math.Log2(float64(n)) / 2
	b := int(c*log4) + 1
	if b < 1 {
		b = 1
	}
	return b
}
