package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/instance"
)

// system builds spec's system, failing the test on error.
func system(t *testing.T, spec instance.Spec) *core.System {
	t.Helper()
	sys, err := spec.System()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRunDynamicSmoke(t *testing.T) {
	spec := instance.Spec{Graph: "torus", N: 16, Tasks: 400, Seed: 1, Speeds: "twoclass", SMax: 2,
		Model: "uniform", Protocol: "paper", Placement: "corner"}
	sys := system(t, spec)
	cfg := dynCfg{
		arrivals: 8, departures: 0.5, churn: 20,
		burstEvery: 15, burstSize: 40,
		horizon: 50, eventSeed: 18,
	}
	for _, model := range []string{"uniform", "weighted"} {
		s := spec
		s.Model = model
		if err := runDynamic(s, sys, "seq", cfg, harness.EngineOpts{}); err != nil {
			t.Errorf("runDynamic(%s): %v", model, err)
		}
	}
	spec.Placement = "random"
	if err := runDynamic(spec, sys, "cluster", cfg, harness.EngineOpts{Shards: 2}); err != nil {
		t.Errorf("runDynamic(cluster): %v", err)
	}
	if err := runDynamic(spec, sys, "shard", cfg,
		harness.EngineOpts{Shards: 3, Workers: 2}); err != nil {
		t.Errorf("runDynamic(shard): %v", err)
	}
}

// TestRunFixedSmoke covers the fixed-round scale mode on every uniform
// engine, shard strategies included.
func TestRunFixedSmoke(t *testing.T) {
	spec := instance.Spec{Graph: "ring", N: 24, Tasks: 24 * 64, Seed: 1, Speeds: "uniform", SMax: 4,
		Model: "uniform", Protocol: "paper", Placement: "corner"}
	sys := system(t, spec)
	for _, tc := range []struct {
		engine string
		eo     harness.EngineOpts
	}{
		{"seq", harness.EngineOpts{}},
		{"cluster", harness.EngineOpts{Shards: 2}},
		{"shard", harness.EngineOpts{Shards: 5, Workers: 2}},
		{"shard", harness.EngineOpts{Shards: 3, Strategy: "degree"}},
	} {
		if err := runFixed(spec, sys, tc.engine, 30, 0, tc.eo); err != nil {
			t.Errorf("runFixed(%s %+v): %v", tc.engine, tc.eo, err)
		}
	}
	if err := runFixed(spec, sys, "shard", 10, 0,
		harness.EngineOpts{Strategy: "warp"}); err == nil {
		t.Error("unknown shard strategy accepted")
	}
}

// TestFixedReportSubMillisecond pins the report-line bugfix: a
// sub-millisecond run must print its real duration, not "0s" (the old
// code rounded the total to milliseconds).
func TestFixedReportSubMillisecond(t *testing.T) {
	line := fixedReport(5, 110*time.Microsecond, 42)
	if !strings.Contains(line, "5 rounds in 110µs") {
		t.Errorf("report %q does not show the µs-rounded total", line)
	}
	if strings.Contains(line, "in 0s") {
		t.Errorf("report %q truncates to 0s", line)
	}
	if !strings.Contains(line, "22µs/round") {
		t.Errorf("report %q does not show the per-round time", line)
	}
	if !strings.Contains(line, "42 moves") {
		t.Errorf("report %q does not show moves", line)
	}
	// Longer runs still read naturally.
	if line := fixedReport(100, 377*time.Millisecond, 7); !strings.Contains(line, "100 rounds in 377ms") {
		t.Errorf("report %q mangles a millisecond-scale total", line)
	}
}

// TestFixedHeaderResolved pins the header bugfix: the banner reports
// the resolved execution parameters, never the raw zero-valued flags,
// and shard fields appear only for the shard engine.
func TestFixedHeaderResolved(t *testing.T) {
	eo := harness.EngineOpts{}.Resolved("shard", 1000)
	line := fixedHeader(100, "weighted", "shard", eo)
	if strings.Contains(line, "workers=0") || strings.Contains(line, "shards=0") {
		t.Errorf("header %q reports unresolved flag values", line)
	}
	if !strings.Contains(line, "model=weighted") || !strings.Contains(line, "(contiguous)") {
		t.Errorf("header %q missing model or resolved strategy", line)
	}
	seqLine := fixedHeader(30, "uniform", "seq", harness.EngineOpts{}.Resolved("seq", 24))
	if strings.Contains(seqLine, "shards=") {
		t.Errorf("header %q shows shard fields for the seq engine", seqLine)
	}
	if !strings.Contains(seqLine, "workers=1") {
		t.Errorf("header %q does not resolve seq to one worker", seqLine)
	}
}

// TestRunFixedWeightedSmoke covers the weighted fixed-round scale mode
// on every weighted engine, strategies and placements included.
func TestRunFixedWeightedSmoke(t *testing.T) {
	spec := instance.Spec{Graph: "ring", N: 24, Tasks: 24 * 16, Seed: 1, Speeds: "twoclass", SMax: 2,
		Model: "weighted", Protocol: "paper"}
	sys := system(t, spec)
	for _, tc := range []struct {
		engine    string
		placement string
		eo        harness.EngineOpts
	}{
		{"seq", "corner", harness.EngineOpts{}},
		{"cluster", "random", harness.EngineOpts{Shards: 2}},
		{"shard", "proportional", harness.EngineOpts{Shards: 5, Workers: 2}},
		{"shard", "corner", harness.EngineOpts{Shards: 3, Strategy: "degree"}},
	} {
		s := spec
		s.Placement = tc.placement
		if err := runFixedWeighted(s, sys, tc.engine, 20, 0, tc.eo); err != nil {
			t.Errorf("runFixedWeighted(%s %s %+v): %v", tc.engine, tc.placement, tc.eo, err)
		}
	}
	baseline := spec
	baseline.Protocol, baseline.Placement = "baseline", "corner"
	if err := runFixedWeighted(baseline, sys, "shard", 5, 0,
		harness.EngineOpts{}); err == nil {
		t.Error("shard accepted the baseline protocol")
	}
	nope := spec
	nope.Placement = "nope"
	if err := runFixedWeighted(nope, sys, "seq", 5, 0,
		harness.EngineOpts{}); err == nil {
		t.Error("unknown placement accepted")
	}
}
