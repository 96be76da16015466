package instance

import (
	"encoding/json"
	"flag"
	"maps"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/workload"
)

func TestFlagsMetaRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fl := Bind(fs, Defaults())
	if err := fs.Parse([]string{
		"-graph", "torus", "-n", "100", "-tasks", "5000", "-seed", "9",
		"-speeds", "twoclass", "-smax", "2", "-model", "weighted",
		"-protocol", "paper", "-placement", "random"}); err != nil {
		t.Fatal(err)
	}
	got, err := FromMeta(fl.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if got != *fl {
		t.Fatalf("meta round trip: got %+v, want %+v", got, *fl)
	}
	if _, err := FromMeta(map[string]string{"graph": "ring"}); err == nil {
		t.Fatal("incomplete meta accepted")
	}
}

// TestBindDefaults: each command passes its own defaults; Bind must
// leave them in place when no flag is given.
func TestBindDefaults(t *testing.T) {
	d := Defaults()
	d.N, d.Placement = 1024, "proportional"
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s := Bind(fs, d)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *s != d {
		t.Fatalf("Bind defaults: got %+v, want %+v", *s, d)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	for name, mut := range map[string]func(*Spec){
		"graph":     func(s *Spec) { s.Graph = "barbell" },
		"speeds":    func(s *Spec) { s.Speeds = "fast" },
		"model":     func(s *Spec) { s.Model = "mixed" },
		"protocol":  func(s *Spec) { s.Protocol = "typo" },
		"placement": func(s *Spec) { s.Placement = "typo" },
		"n":         func(s *Spec) { s.N = 0 },
		"tasks":     func(s *Spec) { s.Tasks = -1 },
		"smax nan":  func(s *Spec) { s.SMax = math.NaN() },
		"smax<1":    func(s *Spec) { s.Speeds, s.SMax = "integers", 0.5 },
	} {
		s := Defaults()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: %+v accepted", name, s)
		}
	}
}

func TestBuildGraphClasses(t *testing.T) {
	for _, name := range []string{"complete", "ring", "path", "torus", "mesh", "hypercube", "star", "regular"} {
		g, lambda2, err := Spec{Graph: name, N: 16, Seed: 1}.graph()
		if err != nil {
			t.Fatalf("graph(%s): %v", name, err)
		}
		if g == nil || g.N() < 2 {
			t.Fatalf("graph(%s): bad graph", name)
		}
		if lambda2 <= 0 {
			t.Errorf("graph(%s): λ₂ = %g", name, lambda2)
		}
		if !g.IsConnected() {
			t.Errorf("graph(%s): disconnected", name)
		}
	}
	if _, _, err := (Spec{Graph: "nope", N: 16, Seed: 1}).graph(); err == nil {
		t.Error("unknown graph accepted")
	}
}

func TestBuildSpeedsProfiles(t *testing.T) {
	for _, profile := range []string{"uniform", "twoclass", "integers"} {
		s, err := Spec{Speeds: profile, SMax: 4, Seed: 1}.speeds(12)
		if err != nil {
			t.Fatalf("speeds(%s): %v", profile, err)
		}
		if len(s) != 12 {
			t.Fatalf("speeds(%s): %d speeds", profile, len(s))
		}
		if err := s.Validate(); err != nil {
			t.Errorf("speeds(%s): %v", profile, err)
		}
	}
	if _, err := (Spec{Speeds: "nope", SMax: 4, Seed: 1}).speeds(12); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestSqrtSide(t *testing.T) {
	cases := []struct{ n, want int }{{1, 1}, {4, 2}, {5, 3}, {9, 3}, {10, 4}, {64, 8}}
	for _, c := range cases {
		if got := sqrtSide(c.n); got != c.want {
			t.Errorf("sqrtSide(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestInitialCounts(t *testing.T) {
	g, lambda2, err := Spec{Graph: "ring", N: 8, Seed: 1}.graph()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(g, machine.Uniform(g.N()), core.WithLambda2(lambda2))
	if err != nil {
		t.Fatal(err)
	}
	for _, placement := range []string{"corner", "random", "proportional"} {
		counts, err := Spec{Tasks: 80, Placement: placement, Seed: 1}.Counts(sys)
		if err != nil {
			t.Fatalf("Counts(%s): %v", placement, err)
		}
		sum := int64(0)
		for _, c := range counts {
			sum += c
		}
		if sum != 80 {
			t.Errorf("Counts(%s): sum %d, want 80", placement, sum)
		}
	}
	if _, err := (Spec{Tasks: 80, Placement: "nope", Seed: 1}).Counts(sys); err == nil {
		t.Error("unknown placement accepted")
	}
}

// TestBuildMatrix builds every class × speed profile × placement ×
// model at n=16: the system must be connected with valid speeds, the
// initial state must hold exactly TaskCount tasks, and a second build
// of the same spec must be identical.
func TestBuildMatrix(t *testing.T) {
	for _, graphName := range graphs {
		for _, speeds := range speedProfiles {
			for _, placement := range placements {
				for _, model := range models {
					s := Spec{Graph: graphName, N: 16, Seed: 7, Speeds: speeds, SMax: 3,
						Model: model, Protocol: "paper", Placement: placement}
					if err := s.Validate(); err != nil {
						t.Fatalf("%+v: %v", s, err)
					}
					a, b := build(t, s), build(t, s)
					if !reflect.DeepEqual(a, b) {
						t.Errorf("%+v: two builds differ", s)
					}
				}
			}
		}
	}
}

// built is everything a spec determines, flattened for comparison.
type built struct {
	speeds  []float64
	counts  []int64
	weights []task.Weights
}

func build(t *testing.T, s Spec) built {
	t.Helper()
	sys, err := s.System()
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	if !sys.Graph().IsConnected() || sys.Lambda2() <= 0 {
		t.Fatalf("%+v: disconnected or λ₂=%g", s, sys.Lambda2())
	}
	if err := sys.Speeds().Validate(); err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	m := s.TaskCount(sys.N())
	if m != 64*int64(sys.N()) {
		t.Fatalf("%+v: default m=%d for n=%d", s, m, sys.N())
	}
	out := built{speeds: sys.Speeds()}
	var got int64
	if s.Model == "weighted" {
		if out.weights, err = s.Weighted(sys); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		for _, ws := range out.weights {
			got += int64(len(ws))
		}
	} else {
		if out.counts, err = s.Counts(sys); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		for _, c := range out.counts {
			got += c
		}
	}
	if got != m {
		t.Fatalf("%+v: %d tasks placed, want %d", s, got, m)
	}
	return out
}

// TestSeedOffsets pins the seed contract journals depend on: the
// regular graph from Seed, integers speeds from Seed+1, random
// placement from Seed+2, task weights from Seed+3.
func TestSeedOffsets(t *testing.T) {
	s := Spec{Graph: "regular", N: 20, Tasks: 300, Seed: 11, Speeds: "integers", SMax: 5,
		Model: "weighted", Protocol: "paper", Placement: "random"}
	sys, err := s.System()
	if err != nil {
		t.Fatal(err)
	}
	wantSpeeds, err := machine.RandomIntegers(20, 5, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sys.Speeds(), wantSpeeds) {
		t.Error("integers speeds not drawn from seed+1")
	}
	counts, err := s.Counts(sys)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts, err := workload.UniformRandom(20, 300, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts, wantCounts) {
		t.Error("random placement not drawn from seed+2")
	}
	perNode, err := s.Weighted(sys)
	if err != nil {
		t.Fatal(err)
	}
	weights, err := task.RandomWeights(300, 0.1, 1.0, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	wantPerNode, err := workload.WeightedUniformRandom(20, weights, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(perNode, wantPerNode) {
		t.Error("task weights not drawn from seed+3 or placed from seed+2")
	}
	other := s
	other.Seed = 12
	sys2, err := other.System()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(sys.Graph(), sys2.Graph()) {
		t.Error("regular graph does not depend on seed")
	}
}

func TestWeightedProtocolNames(t *testing.T) {
	for _, name := range protocols {
		s := Defaults()
		s.Protocol = name
		if _, err := s.WeightedProtocol(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	s := Defaults()
	s.Protocol = "nope"
	if _, err := s.WeightedProtocol(); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// FuzzSpecFromMeta feeds arbitrary journal-header meta objects to
// FromMeta: each must be rejected or yield a spec whose Meta re-parses
// to the same spec. FromMeta builds nothing, so no input can cost a
// graph or λ₂ computation.
func FuzzSpecFromMeta(f *testing.F) {
	lbd := Defaults()
	lbd.N, lbd.Placement = 1024, "proportional"
	withEngine := lbd.Meta()
	withEngine["engine"] = "shard"
	missing := Defaults().Meta()
	delete(missing, "smax")
	for _, m := range []map[string]string{Defaults().Meta(), withEngine, missing} {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"graph":"regular","n":"-3","tasks":"1e3","seed":"x","speeds":"integers","smax":"NaN","model":"weighted","protocol":"paper","placement":"random"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var meta map[string]string
		if json.Unmarshal(data, &meta) != nil {
			return
		}
		s, err := FromMeta(meta)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("FromMeta returned an invalid spec %+v: %v", s, err)
		}
		again, err := FromMeta(s.Meta())
		if err != nil {
			t.Fatalf("Meta of %+v does not re-parse: %v", s, err)
		}
		if again != s || !maps.Equal(again.Meta(), s.Meta()) {
			t.Fatalf("round trip changed the spec: %+v → %+v", s, again)
		}
	})
}
