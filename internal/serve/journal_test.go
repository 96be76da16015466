package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzReadJournal checks the single-file journal reader on arbitrary
// bytes: it returns an error and never panics, and whatever it accepts
// survives Write then ReadJournal unchanged. Seeds: the pinned journal
// lbd replays across versions, and both ends of a rotated chain (which
// the single-file reader must refuse).
func FuzzReadJournal(f *testing.F) {
	pinned, err := os.ReadFile(filepath.Join("..", "..", "cmd", "lbd", "testdata", "weighted-regular-v1.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pinned)
	path := filepath.Join(f.TempDir(), "run.jsonl")
	sink, err := NewJournalSink(path, 128, Config{N: 4, Seed: 3, TraceEvery: 2})
	if err != nil {
		f.Fatal(err)
	}
	for r := 1; r <= 4; r++ {
		e := Entry{Round: r, Arrivals: []CountEvent{{Node: r % 4, Count: int64(r)}}}
		if err := sink.Append(e, core.RunResult{Rounds: r, Moves: int64(2 * r)}); err != nil {
			f.Fatal(err)
		}
	}
	if err := sink.Close(&core.RunResult{Rounds: 5, Converged: true, Moves: 11}); err != nil {
		f.Fatal(err)
	}
	if sink.Segments() < 2 {
		f.Fatalf("sink did not rotate: %d segment", sink.Segments())
	}
	for _, seg := range []int{0, sink.Segments() - 1} {
		raw, err := os.ReadFile(segmentName(path, seg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		j, err := ReadJournal(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := j.Write(&buf); err != nil {
			t.Fatalf("accepted journal does not write: %v", err)
		}
		again, err := ReadJournal(&buf)
		if err != nil {
			t.Fatalf("rewritten journal rejected: %v", err)
		}
		if !reflect.DeepEqual(again, j) {
			t.Fatalf("journal changed across Write and ReadJournal:\n got %+v\nwant %+v", again, j)
		}
	})
}
