package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// sampleCheckpoints returns one uniform and one weighted checkpoint on a
// 4-node ring split into two shards, every field set to a distinct value
// so a decoder that swaps or drops a field cannot round-trip them.
func sampleCheckpoints() []*Checkpoint {
	base := func(model uint8, proto string) *Checkpoint {
		return &Checkpoint{
			model: model, proto: proto, alpha: 2.5, p: 2, strategy: Contiguous,
			csrName: "ring-4", n: 4,
			offsets: []int32{0, 2, 4, 6, 8},
			adj:     []int32{1, 3, 0, 2, 1, 3, 2, 0},
			speeds:  []float64{1, 2, 1, 2},
			lambda2: 0.5,
			Seed:    7, MaxRounds: 100, TraceEvery: 10, Round: 20,
			totalW: 12.75, count: 30, sinceRecompute: 3,
			res: core.RunResult{Rounds: 20, Moves: 41, Trace: []core.TracePoint{
				{Round: 0, Psi0: 90, Psi1: 8, LDelta: 6, Moves: 0},
				{Round: 10, Psi0: 12.5, Psi1: 2, LDelta: 1.5, Moves: 33},
			}},
			lastTraced: 10,
		}
	}
	uni := base(modelUniform, "algorithm1")
	uni.states = []*ownState{{Counts: []int64{5, 9}}, {Counts: []int64{0, 16}}}
	wtd := base(modelWeighted, "algorithm2")
	wtd.states = []*ownState{
		{SegLen: []int64{1, 2}, Segs: []float64{0.25, 0.5, 1}, NodeWeight: []float64{0.25, 1.5}},
		{SegLen: []int64{0, 1}, Segs: []float64{0.75}, NodeWeight: []float64{0, 0.75}},
	}
	return []*Checkpoint{uni, wtd}
}

// withCRC returns a copy of raw whose last four bytes are replaced by
// the CRC32 of the rest, so mutated bodies reach the structural checks.
func withCRC(raw []byte) []byte {
	if len(raw) < 4 {
		return raw
	}
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// TestCheckpointEncodeDecodeRoundTrip pins that decodeCheckpoint is the
// exact inverse of encode for both task models.
func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	for _, want := range sampleCheckpoints() {
		got, err := decodeCheckpoint(want.encode())
		if err != nil {
			t.Fatalf("model %d: %v", want.model, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("model %d: decoded %+v, want %+v", want.model, got, want)
		}
	}
}

// TestDecodeCheckpointRejectsHugeShardCount pins the allocation guard: a
// CRC-valid file whose shard count cannot fit in the remaining bytes is
// rejected before the per-shard state slice is allocated.
func TestDecodeCheckpointRejectsHugeShardCount(t *testing.T) {
	for _, p := range []int{1 << 31, 0, 3} {
		ck := sampleCheckpoints()[0]
		ck.p = p
		ck.states = ck.states[:0]
		if _, err := decodeCheckpoint(ck.encode()); err == nil {
			t.Errorf("p = %d with no shard states accepted", p)
		}
	}
}

// stillEngine is handed to restores that must not touch the engine:
// any Step or State call fails.
type stillEngine struct{}

func (stillEngine) Step(uint64, *rng.Stream) (int64, error) {
	return 0, errors.New("restore stepped the engine")
}

func (stillEngine) State() (*core.UniformState, error) {
	return nil, errors.New("restore sampled the engine")
}

// FuzzDecodeCheckpoint checks the checkpoint decoder on arbitrary bytes,
// both as given and with a recomputed CRC trailer (so mutations get past
// the checksum): decoding returns an error and never panics, whatever
// it accepts re-encodes to exactly the input bytes, and its progress
// restores into a core.Run under its own run options.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, ck := range sampleCheckpoints() {
		raw := ck.encode()
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, in := range [][]byte{raw, withCRC(raw)} {
			ck, err := decodeCheckpoint(in)
			if err != nil {
				continue
			}
			if again := ck.encode(); !bytes.Equal(again, in) {
				t.Fatalf("decoded checkpoint re-encodes to %d bytes that differ from the %d input bytes", len(again), len(in))
			}
			p := ck.progress()
			opts := core.RunOpts{MaxRounds: ck.MaxRounds, Seed: ck.Seed, TraceEvery: ck.TraceEvery}
			if _, err := core.NewRun[*core.UniformState](stillEngine{}, nil, opts, p); err != nil {
				t.Fatalf("accepted checkpoint does not restore: %v", err)
			}
		}
	})
}
