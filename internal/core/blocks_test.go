package core

import (
	"testing"

	"repro/internal/workload"
)

func TestRunBlocksSucceedsWithinCorollaryBudget(t *testing.T) {
	// Corollary 3.18: blocks of T = 2γ·ln(m/n) rounds each succeed with
	// probability ≥ 3/4, so c·log₄(n) blocks suffice whp.
	sys := testSystem(t, 8)
	m := int64(1600)
	counts, err := workload.AllOnOne(8, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewUniformState(sys, counts)
	if err != nil {
		t.Fatal(err)
	}
	blockRounds := int(sys.ApproxPhaseRounds(m)) + 1
	maxBlocks := BlocksForConfidence(8, 3)
	threshold := 4 * sys.PsiCritical()
	block, rounds, ok, err := RunBlocks(st, Algorithm1{}, StopAtPsi0Below(threshold),
		blockRounds, maxBlocks, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("did not reach Ψ₀ ≤ 4ψ_c within %d blocks (%d rounds)", maxBlocks, rounds)
	}
	if block < 1 || block > maxBlocks {
		t.Errorf("block index %d outside [1,%d]", block, maxBlocks)
	}
}

func TestRunBlocksImmediateStop(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewUniformState(sys, []int64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	block, rounds, ok, err := RunBlocks(st, Algorithm1{}, StopAtNash(), 10, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || block != 0 || rounds != 0 {
		t.Errorf("immediate NE: block=%d rounds=%d ok=%v", block, rounds, ok)
	}
}

func TestRunBlocksValidation(t *testing.T) {
	sys := testSystem(t, 4)
	st, err := NewUniformState(sys, []int64{4, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := RunBlocks(st, Algorithm1{}, StopAtNash(), 0, 3, 1); err == nil {
		t.Error("blockRounds=0 accepted")
	}
}

func TestBlocksForConfidence(t *testing.T) {
	if b := BlocksForConfidence(16, 2); b != 2*2+1 {
		t.Errorf("blocks(16, 2) = %d, want 5 (⌈2·log₄16⌉+1)", b)
	}
	if b := BlocksForConfidence(1, 2); b != 1 {
		t.Errorf("blocks(1) = %d", b)
	}
	if b := BlocksForConfidence(100, 0); b != 1 {
		t.Errorf("blocks(c=0) = %d", b)
	}
}
