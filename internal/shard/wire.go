package shard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/transport"
)

// Wire-level payload encodings shared by the cluster coordinator
// (cluster.go) and the shard worker (worker.go). Everything is built on
// transport.Buffer primitives; floats travel as IEEE bit patterns so
// state round-trips bit-exactly.

const (
	modelUniform  uint8 = 0
	modelWeighted uint8 = 1
)

// clusterConfig is the session-start frame: the full instance
// description a worker needs to build its engine, plus the initial (or
// restored) state of the worker's own index range only. A worker never
// holds another shard's tasks — decisions and commits touch only its
// own range, and foreign loads arrive per round through the halo
// exchange — so shipping (or retaining) out-of-range state would be a
// dead buffer. Lo anchors the range; its length is implied by the
// state vectors.
type clusterConfig struct {
	Model    uint8
	Proto    string  // registered protocol name
	Alpha    float64 // protocol damping (0 means default)
	P        int
	Shard    int // this worker's shard index
	Lo       int // first vertex of the worker's own range
	Strategy string

	// Instance: CSR + speeds + λ₂ reconstruct the core.System without
	// an eigensolve.
	CSRName string
	N       int
	Offsets []int32
	Adj     []int32
	Speeds  []float64
	Lambda2 float64

	// Own-range state. Uniform: Counts. Weighted: per-node segment
	// lengths plus the concatenated segment contents (the ownState
	// layout); when Restored, NodeWeight carries the checkpointed
	// cached per-node sums (which drift from the exact folds between
	// periodic recomputes and so cannot be recomputed from Segs).
	Counts     []int64
	SegLen     []int64
	Segs       []float64
	Restored   bool
	NodeWeight []float64
}

func encodeConfig(b *transport.Buffer, c *clusterConfig) {
	b.PutU8(c.Model)
	b.PutString(c.Proto)
	b.PutF64(c.Alpha)
	b.PutU32(uint32(c.P))
	b.PutU32(uint32(c.Shard))
	b.PutU32(uint32(c.Lo))
	b.PutString(c.Strategy)
	b.PutString(c.CSRName)
	b.PutU32(uint32(c.N))
	b.PutI32s(c.Offsets)
	b.PutI32s(c.Adj)
	b.PutF64s(c.Speeds)
	b.PutF64(c.Lambda2)
	if c.Model == modelUniform {
		b.PutI64s(c.Counts)
	} else {
		b.PutI64s(c.SegLen)
		b.PutF64s(c.Segs)
	}
	if c.Restored {
		b.PutU8(1)
		if c.Model == modelWeighted {
			b.PutF64s(c.NodeWeight)
		}
	} else {
		b.PutU8(0)
	}
}

func decodeConfig(b *transport.Buffer) (*clusterConfig, error) {
	c := &clusterConfig{}
	var err error
	read := func(f func() error) {
		if err == nil {
			err = f()
		}
	}
	read(func() (e error) { c.Model, e = b.U8(); return })
	read(func() (e error) { c.Proto, e = b.String(); return })
	read(func() (e error) { c.Alpha, e = b.F64(); return })
	read(func() (e error) { v, e := b.U32(); c.P = int(v); return e })
	read(func() (e error) { v, e := b.U32(); c.Shard = int(v); return e })
	read(func() (e error) { v, e := b.U32(); c.Lo = int(v); return e })
	read(func() (e error) { c.Strategy, e = b.String(); return })
	read(func() (e error) { c.CSRName, e = b.String(); return })
	read(func() (e error) { v, e := b.U32(); c.N = int(v); return e })
	read(func() (e error) { c.Offsets, e = b.I32s(nil); return })
	read(func() (e error) { c.Adj, e = b.I32s(nil); return })
	read(func() (e error) { c.Speeds, e = b.F64s(nil); return })
	read(func() (e error) { c.Lambda2, e = b.F64(); return })
	if err != nil {
		return nil, err
	}
	if c.Model == modelUniform {
		read(func() (e error) { c.Counts, e = b.I64s(nil); return })
	} else {
		read(func() (e error) { c.SegLen, e = b.I64s(nil); return })
		read(func() (e error) { c.Segs, e = b.F64s(nil); return })
	}
	read(func() (e error) {
		v, e := b.U8()
		c.Restored = v != 0
		return e
	})
	if err == nil && c.Restored && c.Model == modelWeighted {
		c.NodeWeight, err = b.F64s(nil)
	}
	if err != nil {
		return nil, fmt.Errorf("shard: decode cluster config: %w", err)
	}
	return c, nil
}

// encodeEventSlice writes one worker's slice of an event batch: sparse
// (node, payload) entries in ascending node order. nodes is the part of
// batch.Nodes() inside the worker's [lo,hi) (core.NodesIn), so the
// coordinator computes the touched list once and splits it per worker.
func encodeEventSlice(b *transport.Buffer, model uint8, batch *core.EventBatch, nodes []int) {
	if model == modelUniform {
		putSparseI64 := func(v []int64) {
			cnt := uint32(0)
			for _, i := range nodes {
				if len(v) != 0 && v[i] != 0 {
					cnt++
				}
			}
			b.PutU32(cnt)
			for _, i := range nodes {
				if len(v) != 0 && v[i] != 0 {
					b.PutU32(uint32(i))
					b.PutI64(v[i])
				}
			}
		}
		putSparseI64(batch.Arrivals)
		putSparseI64(batch.Departures)
		return
	}
	wa := batch.WeightArrivals
	cnt := uint32(0)
	for _, i := range nodes {
		if len(wa) != 0 && len(wa[i]) != 0 {
			cnt++
		}
	}
	b.PutU32(cnt)
	for _, i := range nodes {
		if len(wa) != 0 && len(wa[i]) != 0 {
			b.PutU32(uint32(i))
			b.PutF64s(wa[i])
		}
	}
	wd := batch.WeightDepartures
	cnt = 0
	for _, i := range nodes {
		if len(wd) != 0 && wd[i] != 0 {
			cnt++
		}
	}
	b.PutU32(cnt)
	for _, i := range nodes {
		if len(wd) != 0 && wd[i] != 0 {
			b.PutU32(uint32(i))
			b.PutI64(wd[i])
		}
	}
}

// decodeEventSlice decodes one worker's event slice for an n-node
// system into batch, which it Resets first, so a worker reuses one
// batch — and its n-long vectors — round after round. Entries go
// through the Add helpers, so the batch stays indexed. Every section's
// nodes must lie in the worker's [lo,hi) and be strictly ascending, and
// every entry must carry an event (a non-zero count, a non-empty weight
// list) — exactly what encodeEventSlice writes — so a node the worker
// does not own cannot reach its state or its event report, and a
// duplicate cannot silently merge.
func decodeEventSlice(b *transport.Buffer, model uint8, n, lo, hi int, batch *core.EventBatch) error {
	batch.Reset()
	// section reads one sparse section, calling entry for each node
	// after the range and order checks.
	section := func(what string, entry func(i int) error) error {
		cnt, err := b.U32()
		if err != nil {
			return err
		}
		prev := -1
		for j := uint32(0); j < cnt; j++ {
			v, err := b.U32()
			if err != nil {
				return err
			}
			i := int(v)
			if i < lo || i >= hi || i >= n {
				return fmt.Errorf("shard: %s event at node %d outside the worker's range [%d,%d)", what, i, lo, hi)
			}
			if i <= prev {
				return fmt.Errorf("shard: %s event at node %d after node %d", what, i, prev)
			}
			prev = i
			if err := entry(i); err != nil {
				return err
			}
		}
		return nil
	}
	count := func(what string, add func(n, i int, k int64)) error {
		return section(what, func(i int) error {
			k, err := b.I64()
			if err != nil {
				return err
			}
			if k == 0 {
				return fmt.Errorf("shard: empty %s event at node %d", what, i)
			}
			add(n, i, k)
			return nil
		})
	}
	if model == modelUniform {
		if err := count("arrival", batch.AddArrival); err != nil {
			return err
		}
		return count("departure", batch.AddDeparture)
	}
	err := section("weight-arrival", func(i int) error {
		k, err := b.U32()
		if err != nil {
			return err
		}
		if k == 0 {
			return fmt.Errorf("shard: empty weight-arrival event at node %d", i)
		}
		if b.Remaining() < int(k)*8 {
			return fmt.Errorf("shard: %d arrival weights in %d bytes", k, b.Remaining())
		}
		for ; k > 0; k-- {
			w, _ := b.F64() // cannot fail: the length was checked above
			batch.AddWeightArrival(n, i, w)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return count("weight-departure", batch.AddWeightDeparture)
}

// ownState is a worker's own-range state: the payload of KindState
// frames and the body of shard checkpoint files. Uniform: Counts.
// Weighted: per-node segment lengths, the concatenated segment
// contents, and the cached (drifting) per-node weight sums.
type ownState struct {
	Counts     []int64
	SegLen     []int64
	Segs       []float64
	NodeWeight []float64
}

func encodeOwnState(b *transport.Buffer, model uint8, st *ownState) {
	if model == modelUniform {
		b.PutI64s(st.Counts)
		return
	}
	b.PutI64s(st.SegLen)
	b.PutF64s(st.Segs)
	b.PutF64s(st.NodeWeight)
}

func decodeOwnState(b *transport.Buffer, model uint8) (*ownState, error) {
	st := &ownState{}
	var err error
	if model == modelUniform {
		st.Counts, err = b.I64s(nil)
		return st, err
	}
	if st.SegLen, err = b.I64s(nil); err != nil {
		return nil, err
	}
	if st.Segs, err = b.F64s(nil); err != nil {
		return nil, err
	}
	if st.NodeWeight, err = b.F64s(nil); err != nil {
		return nil, err
	}
	return st, nil
}

// protoSpec extracts the wire (name, alpha) pair for a protocol the
// cluster can ship to workers. Only the paper's two algorithms are
// registered; anything else cannot cross the process boundary.
func protoSpec(proto any) (string, float64, error) {
	switch p := proto.(type) {
	case core.Algorithm1:
		return "algorithm1", p.Alpha, nil
	case core.Algorithm2:
		return "algorithm2", p.Alpha, nil
	}
	return "", 0, fmt.Errorf("shard: protocol %T is not registered for cluster execution (want core.Algorithm1 or core.Algorithm2)", proto)
}
