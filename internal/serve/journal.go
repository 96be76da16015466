package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"

	"repro/internal/core"
)

// CountEvent is a sparse per-node count entry in a journaled batch.
type CountEvent struct {
	Node  int   `json:"node"`
	Count int64 `json:"count"`
}

// WeightEvent is the ordered weight-arrival list a node received in one
// batch; order is application order and must be preserved for replay.
type WeightEvent struct {
	Node    int       `json:"node"`
	Weights []float64 `json:"weights"`
}

// Entry is one round's admitted batch in sparse form. Rounds with no
// events have no entry.
type Entry struct {
	Round            int           `json:"round"`
	Arrivals         []CountEvent  `json:"arrivals,omitempty"`
	Departures       []CountEvent  `json:"departures,omitempty"`
	WeightArrivals   []WeightEvent `json:"weightArrivals,omitempty"`
	WeightDepartures []CountEvent  `json:"weightDepartures,omitempty"`
}

// Journal is the admitted-batch ledger of a serve-mode run: everything
// needed to replay the run offline through core.Drive — the run
// parameters (seed, trace cadence, total rounds) plus the per-round
// event batches — and, as a footer, the RunResult the live loop
// observed, so replays can assert bit-exactness. Meta carries opaque
// daemon setup (graph family, placement, engine) that cmd/lbd uses to
// rebuild the initial state; package serve never interprets it.
type Journal struct {
	Version    int               `json:"version"`
	N          int               `json:"n"`
	Weighted   bool              `json:"weighted"`
	Seed       uint64            `json:"seed"`
	TraceEvery int               `json:"traceEvery"`
	Meta       map[string]string `json:"meta,omitempty"`
	Rounds     int               `json:"rounds"`
	Entries    []Entry           `json:"-"`
	Result     *core.RunResult   `json:"-"`
}

// journalVersion guards the on-disk format.
const journalVersion = 1

// appendEntry converts the taken group's batch to sparse form and
// records it.
func (j *Journal) appendEntry(round int, batch *core.EventBatch) {
	j.Entries = append(j.Entries, entryFromBatch(round, batch))
}

// entryFromBatch converts a taken group's batch to the canonical sparse
// form (shared by the in-memory journal and the streaming sink). It
// walks the batch's touched nodes, which are ascending, so the journal
// is canonical (node-ascending) regardless of submission interleaving;
// the reconstruction at replay is order-insensitive for counts and
// keeps each node's weight list verbatim.
func entryFromBatch(round int, batch *core.EventBatch) Entry {
	e := Entry{Round: round}
	nodes := batch.Nodes()
	counts := func(v []int64) []CountEvent {
		cnt := 0
		for _, i := range nodes {
			if len(v) != 0 && v[i] != 0 {
				cnt++
			}
		}
		if cnt == 0 {
			return nil
		}
		out := make([]CountEvent, 0, cnt)
		for _, i := range nodes {
			if len(v) != 0 && v[i] != 0 {
				out = append(out, CountEvent{Node: i, Count: v[i]})
			}
		}
		return out
	}
	e.Arrivals = counts(batch.Arrivals)
	e.Departures = counts(batch.Departures)
	if wa := batch.WeightArrivals; len(wa) != 0 {
		cnt := 0
		for _, i := range nodes {
			if len(wa[i]) != 0 {
				cnt++
			}
		}
		if cnt != 0 {
			e.WeightArrivals = make([]WeightEvent, 0, cnt)
			for _, i := range nodes {
				if len(wa[i]) != 0 {
					e.WeightArrivals = append(e.WeightArrivals, WeightEvent{Node: i, Weights: slices.Clone(wa[i])})
				}
			}
		}
	}
	e.WeightDepartures = counts(batch.WeightDepartures)
	return e
}

// Events returns a core.RunOpts.Events function replaying the journaled
// batches: a pure function of the round number backed by one reused
// dense batch (valid until the next call, exactly how Drive consumes
// it). Entries must be round-ascending, which appendEntry guarantees.
// Use Replay to also get the skipped-entry detection: the closure's
// signature cannot surface errors, so a journal whose entries the
// driver jumps past is only reported through the cursor.
func (j *Journal) Events() func(round uint64) *core.EventBatch {
	_, events := j.events()
	return events
}

// replayCursor is the shared state behind an Events closure. Replay
// inspects it after the drive: a skipped entry (the driver asked for a
// later round while an earlier entry was still pending) or a leftover
// entry (a round the drive never reached) means the replay did NOT
// apply the journaled workload, and the run must fail loudly rather
// than return a silently-diverged result.
type replayCursor struct {
	idx int
	err error
}

func (j *Journal) events() (*replayCursor, func(round uint64) *core.EventBatch) {
	var batch core.EventBatch
	cur := &replayCursor{}
	return cur, func(round uint64) *core.EventBatch {
		for cur.idx < len(j.Entries) && uint64(j.Entries[cur.idx].Round) < round {
			if cur.err == nil {
				cur.err = fmt.Errorf("serve: journal entry for round %d was never applied (driver skipped to round %d)",
					j.Entries[cur.idx].Round, round)
			}
			cur.idx++
		}
		if cur.idx >= len(j.Entries) || uint64(j.Entries[cur.idx].Round) != round {
			return nil
		}
		e := j.Entries[cur.idx]
		cur.idx++
		batch.Reset()
		for _, a := range e.Arrivals {
			addOp(&batch, j.N, Op{Kind: OpArrive, Node: a.Node, Count: a.Count})
		}
		for _, d := range e.Departures {
			addOp(&batch, j.N, Op{Kind: OpComplete, Node: d.Node, Count: d.Count})
		}
		for _, wa := range e.WeightArrivals {
			for _, w := range wa.Weights {
				addOp(&batch, j.N, Op{Kind: OpArriveWeighted, Node: wa.Node, Weight: w})
			}
		}
		for _, d := range e.WeightDepartures {
			addOp(&batch, j.N, Op{Kind: OpCompleteWeighted, Node: d.Node, Count: d.Count})
		}
		return &batch
	}
}

// RunOpts returns the core.RunOpts that replays this journal: same
// seed, same trace cadence, MaxRounds pinned to the live round count,
// Events feeding the recorded batches.
func (j *Journal) RunOpts() (core.RunOpts, error) {
	if j.Rounds <= 0 {
		return core.RunOpts{}, fmt.Errorf("serve: journal records %d rounds; nothing to replay", j.Rounds)
	}
	return core.RunOpts{
		MaxRounds:  j.Rounds,
		Seed:       j.Seed,
		TraceEvery: j.TraceEvery,
		Events:     j.Events(),
	}, nil
}

// Replay drives eng through the journaled run and returns the replayed
// RunResult. Bit-exactness against Journal.Result is the serve-mode
// determinism contract: the engine must be built from the same initial
// state the live run started from (Journal.Meta tells the owner how).
// Replay fails loudly on journals the drive could not honor — entries
// skipped or never reached — and, when the journal carries its live
// result footer, on any divergence from it.
func Replay[S core.State](j *Journal, eng core.Engine[S]) (core.RunResult, error) {
	if j.Rounds <= 0 {
		return core.RunResult{}, fmt.Errorf("serve: journal records %d rounds; nothing to replay", j.Rounds)
	}
	cur, events := j.events()
	res, err := core.Drive[S](eng, nil, core.RunOpts{
		MaxRounds:  j.Rounds,
		Seed:       j.Seed,
		TraceEvery: j.TraceEvery,
		Events:     events,
	})
	if err != nil {
		return res, err
	}
	if cur.err != nil {
		return res, cur.err
	}
	if cur.idx != len(j.Entries) {
		return res, fmt.Errorf("serve: replay applied %d of %d journal entries; entries from round %d on were never reached",
			cur.idx, len(j.Entries), j.Entries[cur.idx].Round)
	}
	if j.Result != nil && !reflect.DeepEqual(res, *j.Result) {
		return res, fmt.Errorf("serve: replay diverged from the journaled result (live rounds=%d moves=%d; replay rounds=%d moves=%d)",
			j.Result.Rounds, j.Result.Moves, res.Rounds, res.Moves)
	}
	return res, nil
}

// jsonl line wrappers: one header object, one line per entry, one
// footer — "result" closes the run, "rotate" hands off to the next
// segment file of a rotated journal. The wrapper type tags keep the
// stream self-describing and forward-extensible.
type jsonlLine struct {
	Type   string          `json:"type"`
	Header *journalHeader  `json:"header,omitempty"`
	Batch  *Entry          `json:"batch,omitempty"`
	Result *core.RunResult `json:"result,omitempty"`
	Next   int             `json:"next,omitempty"`
}

// journalHeader is the Journal's scalar prefix (everything but entries
// and result). Segment and StartRound are zero in single-file journals;
// a rotated segment k > 0 records its index and the round count the
// previous segment's rotation footer anchored at, so the chain walk can
// verify the handoff.
type journalHeader struct {
	Version    int               `json:"version"`
	N          int               `json:"n"`
	Weighted   bool              `json:"weighted"`
	Seed       uint64            `json:"seed"`
	TraceEvery int               `json:"traceEvery"`
	Rounds     int               `json:"rounds"`
	Meta       map[string]string `json:"meta,omitempty"`
	Segment    int               `json:"segment,omitempty"`
	StartRound int               `json:"startRound,omitempty"`
}

// Write serializes the journal as JSONL: header, entries, result
// footer.
func (j *Journal) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hd := journalHeader{
		Version:    journalVersion,
		N:          j.N,
		Weighted:   j.Weighted,
		Seed:       j.Seed,
		TraceEvery: j.TraceEvery,
		Rounds:     j.Rounds,
		Meta:       j.Meta,
	}
	if err := enc.Encode(jsonlLine{Type: "header", Header: &hd}); err != nil {
		return err
	}
	for i := range j.Entries {
		if err := enc.Encode(jsonlLine{Type: "batch", Batch: &j.Entries[i]}); err != nil {
			return err
		}
	}
	if j.Result != nil {
		if err := enc.Encode(jsonlLine{Type: "result", Result: j.Result}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parsedSegment is one JSONL segment stream: header, entries, and at
// most one footer — final ("result") or rotation handoff ("rotate").
type parsedSegment struct {
	header  *journalHeader
	entries []Entry
	final   *core.RunResult
	partial *core.RunResult
	next    int
}

// parseSegment reads one segment stream. Structural errors (lines out
// of protocol order, unknown types, bad versions) surface here; journal
// semantics (round ordering, node ranges, footer presence) are the
// caller's validate step once the full chain is assembled.
func parseSegment(r io.Reader) (*parsedSegment, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	sg := &parsedSegment{}
	for {
		var line jsonlLine
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("serve: journal parse: %w", err)
		}
		if sg.final != nil || sg.partial != nil {
			return nil, fmt.Errorf("serve: journal line after the %q footer", map[bool]string{true: "result", false: "rotate"}[sg.final != nil])
		}
		switch line.Type {
		case "header":
			if sg.header != nil {
				return nil, fmt.Errorf("serve: duplicate journal header")
			}
			if line.Header == nil {
				return nil, fmt.Errorf("serve: header line without header body")
			}
			if line.Header.Version != journalVersion {
				return nil, fmt.Errorf("serve: journal version %d, want %d", line.Header.Version, journalVersion)
			}
			sg.header = line.Header
		case "batch":
			if sg.header == nil {
				return nil, fmt.Errorf("serve: batch line before header")
			}
			if line.Batch == nil {
				return nil, fmt.Errorf("serve: batch line without batch body")
			}
			sg.entries = append(sg.entries, *line.Batch)
		case "result":
			if sg.header == nil {
				return nil, fmt.Errorf("serve: result line before header")
			}
			if line.Result == nil {
				return nil, fmt.Errorf("serve: result line without result body")
			}
			sg.final = line.Result
		case "rotate":
			if sg.header == nil {
				return nil, fmt.Errorf("serve: rotate line before header")
			}
			if line.Result == nil {
				return nil, fmt.Errorf("serve: rotate line without its partial result")
			}
			if line.Next <= 0 {
				return nil, fmt.Errorf("serve: rotate line names no next segment")
			}
			sg.partial = line.Result
			sg.next = line.Next
		default:
			return nil, fmt.Errorf("serve: unknown journal line type %q", line.Type)
		}
	}
	if sg.header == nil {
		return nil, fmt.Errorf("serve: empty journal")
	}
	return sg, nil
}

// journalFromHeader builds the Journal scaffold a header describes.
func journalFromHeader(h *journalHeader) *Journal {
	return &Journal{
		Version:    h.Version,
		N:          h.N,
		Weighted:   h.Weighted,
		Seed:       h.Seed,
		TraceEvery: h.TraceEvery,
		Rounds:     h.Rounds,
		Meta:       h.Meta,
	}
}

// ReadJournal parses a single-segment JSONL journal stream written by
// Write or by an unrotated sink. A stream that ends in a rotation
// footer is refused: the rest of the run lives in sibling files, so it
// must be read through ReadJournalSegments, which can walk the chain.
func ReadJournal(r io.Reader) (*Journal, error) {
	sg, err := parseSegment(r)
	if err != nil {
		return nil, err
	}
	if sg.partial != nil {
		return nil, fmt.Errorf("serve: journal rotates to segment %d; read it by path so the chain can be walked", sg.next)
	}
	if sg.header.Segment != 0 {
		return nil, fmt.Errorf("serve: stream is journal segment %d, not the start of the chain", sg.header.Segment)
	}
	j := journalFromHeader(sg.header)
	j.Entries = sg.entries
	j.Result = sg.final
	// Sink-written headers carry Rounds 0 (the count is unknown when the
	// segment opens); the result footer is authoritative.
	if j.Rounds == 0 && j.Result != nil {
		j.Rounds = j.Result.Rounds
	}
	if err := j.validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// validate rejects journal streams a live run cannot have written:
// truncated files (no result footer), entries out of round order or
// beyond the recorded horizon, and events naming nodes outside the
// instance. Accepting these would make Replay silently produce a
// different run instead of failing.
func (j *Journal) validate() error {
	if j.Result == nil {
		return fmt.Errorf("serve: journal has no result footer (truncated?)")
	}
	nodes := func(k int, evs []CountEvent, kind string) error {
		for _, e := range evs {
			if e.Node < 0 || e.Node >= j.N {
				return fmt.Errorf("serve: journal entry %d: %s node %d outside [0, %d)", k, kind, e.Node, j.N)
			}
			if e.Count < 0 {
				return fmt.Errorf("serve: journal entry %d: %s count %d at node %d is negative", k, kind, e.Count, e.Node)
			}
		}
		return nil
	}
	prev := 0
	for k, e := range j.Entries {
		if e.Round <= prev {
			return fmt.Errorf("serve: journal entry %d at round %d is not after round %d", k, e.Round, prev)
		}
		if e.Round > j.Rounds {
			return fmt.Errorf("serve: journal entry %d at round %d is beyond the recorded %d rounds", k, e.Round, j.Rounds)
		}
		prev = e.Round
		if err := nodes(k, e.Arrivals, "arrival"); err != nil {
			return err
		}
		if err := nodes(k, e.Departures, "departure"); err != nil {
			return err
		}
		if err := nodes(k, e.WeightDepartures, "weight-departure"); err != nil {
			return err
		}
		for _, wa := range e.WeightArrivals {
			if wa.Node < 0 || wa.Node >= j.N {
				return fmt.Errorf("serve: journal entry %d: weight-arrival node %d outside [0, %d)", k, wa.Node, j.N)
			}
		}
	}
	return nil
}
