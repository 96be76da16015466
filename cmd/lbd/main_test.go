package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/serve"
)

// parse builds a flags value through the real FlagSet so tests get the
// same defaults the binary does.
func parse(t *testing.T, argv ...string) *flags {
	t.Helper()
	fl, err := parseFlags(argv)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// TestNewHTTPServerTimeouts: both HTTP surfaces go through
// newHTTPServer, which must bound header reads and idle keep-alives.
func TestNewHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
}

// TestBadInstanceFailsFast: an invalid instance flag is rejected
// before the system is built — a 3000-node random regular graph would
// otherwise cost a numeric λ₂ first.
func TestBadInstanceFailsFast(t *testing.T) {
	fl := parse(t, "-selfdrive", "-graph", "regular", "-n", "3000", "-placement", "typo")
	start := time.Now()
	err := runSelfdrive(context.Background(), fl)
	if err == nil || !strings.Contains(err.Error(), `unknown placement "typo"`) {
		t.Fatalf("selfdrive with a bad placement: %v", err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Errorf("rejection took %v; the instance was built first", d)
	}
}

func TestSelfdriveDirectThenReplayAcrossEngines(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.jsonl")
	fl := parse(t,
		"-selfdrive", "-rate", "4000", "-duration", "250ms",
		"-graph", "ring", "-n", "64", "-tasks", "640", "-seed", "3",
		"-engine", "seq", "-batch", "64", "-maxwait", "1ms",
		"-journal", jpath, "-verify")
	if err := runSelfdrive(context.Background(), fl); err != nil {
		t.Fatalf("selfdrive: %v", err)
	}
	if _, err := os.Stat(jpath); err != nil {
		t.Fatalf("journal not written: %v", err)
	}
	// The journal must replay bit-exact on a differently-executed engine
	// too (trajectories are engine-independent by construction).
	for _, engine := range []string{"seq", "shard"} {
		rfl := parse(t, "-replay", jpath, "-engine", engine, "-shards", "3")
		if err := runReplay(rfl); err != nil {
			t.Fatalf("replay on %s: %v", engine, err)
		}
	}
}

// TestSelfdriveRotatedJournalReplay runs selfdrive with a byte bound
// small enough to force journal rotation, verifies the chain in-process
// (-verify reads the segments back from disk), and replays the rotated
// chain through the replay mode end to end.
func TestSelfdriveRotatedJournalReplay(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.jsonl")
	fl := parse(t,
		"-selfdrive", "-rate", "4000", "-duration", "250ms",
		"-graph", "ring", "-n", "64", "-tasks", "640", "-seed", "3",
		"-engine", "seq", "-batch", "64", "-maxwait", "1ms",
		"-journal", jpath, "-journal-max-bytes", "512", "-verify")
	if err := runSelfdrive(context.Background(), fl); err != nil {
		t.Fatalf("selfdrive with rotation: %v", err)
	}
	if _, err := os.Stat(jpath + ".1"); err != nil {
		t.Fatalf("journal never rotated: %v", err)
	}
	rfl := parse(t, "-replay", jpath)
	if err := runReplay(rfl); err != nil {
		t.Fatalf("replay of rotated journal: %v", err)
	}
}

func TestSelfdriveWeightedHTTP(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.jsonl")
	fl := parse(t,
		"-selfdrive", "-via", "http", "-clients", "4",
		"-rate", "1000", "-duration", "250ms",
		"-graph", "ring", "-n", "32", "-tasks", "320", "-seed", "5",
		"-model", "weighted", "-engine", "seq",
		"-batch", "32", "-maxwait", "1ms",
		"-journal", jpath, "-verify")
	if err := runSelfdrive(context.Background(), fl); err != nil {
		t.Fatalf("selfdrive http: %v", err)
	}
	rfl := parse(t, "-replay", jpath)
	if err := runReplay(rfl); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestDaemonStartupShutdown(t *testing.T) {
	fl := parse(t, "-listen", "127.0.0.1:0", "-graph", "ring", "-n", "16", "-tasks", "64")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runDaemon(ctx, fl) }()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestReplayPinnedJournal replays a weighted journal written by an
// earlier lbd build — random regular graph, integer speeds, random
// placement, so every seed offset of the instance contract feeds the
// rebuilt initial state — and requires a bit-exact result on every
// engine. A change to how the instance is derived from the journal
// meta breaks this test before it breaks anyone's archived journals.
func TestReplayPinnedJournal(t *testing.T) {
	j, err := serve.ReadJournalSegments(filepath.Join("testdata", "weighted-regular-v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !j.Weighted || j.Result == nil || len(j.Entries) == 0 {
		t.Fatalf("pinned journal lost its shape: weighted=%v result=%v entries=%d",
			j.Weighted, j.Result != nil, len(j.Entries))
	}
	for _, engine := range []string{"seq", "shard", "cluster"} {
		if err := verifyJournal(j, engine, harness.EngineOpts{Shards: 2}); err != nil {
			t.Errorf("replay on %s: %v", engine, err)
		}
	}
}
