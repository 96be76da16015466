package shard

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// sampleEventSlices encodes one uniform and one weighted batch slice
// of a 64-node system for the worker range [8,40).
func sampleEventSlices() (uniform, weighted []byte) {
	const n, lo, hi = 64, 8, 40
	var u, w core.EventBatch
	for _, i := range []int{3, 8, 9, 20, 39, 40, 63} {
		u.AddArrival(n, i, int64(i))
		w.AddWeightArrival(n, i, 0.5)
		w.AddWeightArrival(n, i, 0.25)
	}
	for _, i := range []int{8, 12, 39, 50} {
		u.AddDeparture(n, i, 2)
		w.AddWeightDeparture(n, i, 1)
	}
	var b transport.Buffer
	encodeEventSlice(&b, modelUniform, &u, core.NodesIn(u.Nodes(), lo, hi))
	uniform = slices.Clone(b.B)
	b.Reset()
	encodeEventSlice(&b, modelWeighted, &w, core.NodesIn(w.Nodes(), lo, hi))
	return uniform, slices.Clone(b.B)
}

// TestDecodeEventSliceRejects: the decoder refuses nodes outside the
// worker's range (even when inside the system), nodes that do not
// strictly ascend within a section, and entries without an event.
func TestDecodeEventSliceRejects(t *testing.T) {
	const n, lo, hi = 64, 8, 40
	frame := func(build func(b *transport.Buffer)) *transport.Buffer {
		var b transport.Buffer
		build(&b)
		var in transport.Buffer
		in.Load(b.B)
		return &in
	}
	entry := func(b *transport.Buffer, i uint32, k int64) { b.PutU32(i); b.PutI64(k) }
	for _, tc := range []struct {
		name, want string
		model      uint8
		build      func(b *transport.Buffer)
	}{
		{"below range", "outside", modelUniform, func(b *transport.Buffer) { b.PutU32(1); entry(b, 7, 1) }},
		{"above range", "outside", modelUniform, func(b *transport.Buffer) { b.PutU32(0); b.PutU32(1); entry(b, 40, 1) }},
		{"beyond n", "outside", modelWeighted, func(b *transport.Buffer) { b.PutU32(0); b.PutU32(1); entry(b, 64, 1) }},
		{"duplicate", "after node", modelUniform, func(b *transport.Buffer) { b.PutU32(2); entry(b, 9, 1); entry(b, 9, 2) }},
		{"descending", "after node", modelWeighted, func(b *transport.Buffer) {
			b.PutU32(2)
			b.PutU32(12)
			b.PutF64s([]float64{0.5})
			b.PutU32(10)
			b.PutF64s([]float64{0.5})
		}},
		{"zero count", "empty", modelUniform, func(b *transport.Buffer) { b.PutU32(1); entry(b, 9, 0) }},
		{"empty weights", "empty", modelWeighted, func(b *transport.Buffer) { b.PutU32(1); b.PutU32(9); b.PutF64s(nil) }},
		{"short weights", "bytes", modelWeighted, func(b *transport.Buffer) { b.PutU32(1); b.PutU32(9); b.PutU32(3); b.PutF64(0.5) }},
	} {
		var batch core.EventBatch
		err := decodeEventSlice(frame(tc.build), tc.model, n, lo, hi, &batch)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// A valid slice decodes into a reused batch, replacing its contents.
	uni, _ := sampleEventSlices()
	var batch core.EventBatch
	batch.AddArrival(n, 30, 5)
	var in transport.Buffer
	in.Load(uni)
	if err := decodeEventSlice(&in, modelUniform, n, lo, hi, &batch); err != nil {
		t.Fatal(err)
	}
	if got := batch.Nodes(); !slices.Equal(got, []int{8, 9, 12, 20, 39}) || batch.Arrivals[30] != 0 {
		t.Fatalf("decoded nodes %v (node 30 arrivals %d), want [8 9 12 20 39] and 0", got, batch.Arrivals[30])
	}
}

// FuzzDecodeEventSlice checks the event-slice decoder on arbitrary
// bytes, both models and arbitrary worker ranges of a 64-node system:
// it returns an error or a batch whose nodes all lie in the range and
// which re-encodes to exactly the bytes it consumed; it never panics,
// and it allocates only in proportion to the frame (beyond the batch's
// n-long vectors).
func FuzzDecodeEventSlice(f *testing.F) {
	uni, wtd := sampleEventSlices()
	f.Add(uint8(0), uint8(8), uint8(32), uni)
	f.Add(uint8(1), uint8(8), uint8(32), wtd)
	f.Add(uint8(1), uint8(0), uint8(64), wtd[:len(wtd)/2])
	f.Add(uint8(0), uint8(9), uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, model, lo8, span uint8, raw []byte) {
		const n = 64
		model %= 2
		lo := int(lo8) % n
		hi := min(n, lo+int(span)%(n+1))
		var in transport.Buffer
		in.Load(raw)
		var batch core.EventBatch
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := decodeEventSlice(&in, model, n, lo, hi, &batch)
		runtime.ReadMemStats(&m1)
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > uint64(8*len(raw))+8192 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(raw), alloc)
		}
		if err != nil {
			return
		}
		nodes := batch.Nodes()
		if got := core.NodesIn(nodes, lo, hi); len(got) != len(nodes) {
			t.Fatalf("decoded nodes %v outside [%d,%d)", nodes, lo, hi)
		}
		var out transport.Buffer
		encodeEventSlice(&out, model, &batch, nodes)
		if consumed := raw[:len(raw)-in.Remaining()]; !bytes.Equal(out.B, consumed) {
			t.Fatalf("decoded slice re-encodes to %d bytes that differ from the %d consumed", len(out.B), len(consumed))
		}
	})
}
