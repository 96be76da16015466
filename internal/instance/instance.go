// Package instance is the one description of a load-balancing
// instance: the network G, the machine speeds s and the m tasks (unit
// counts or weights) that Algorithm 1 and Algorithm 2 run on. lbsim,
// lbd and lbshard bind the same flags into a Spec, validate it before
// any expensive work, and build the system and the initial placement
// through the builders here, so one spec yields the bit-identical
// instance in every command and in every journal replay.
//
// Seed contract (journals and golden files depend on it): the regular
// graph draws from Seed, integers speeds from Seed+1, random placement
// from Seed+2 and task weights from Seed+3.
package instance

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/rng"
	"repro/internal/spectral"
	"repro/internal/task"
	"repro/internal/workload"
)

// The accepted names, in help-text order.
var (
	graphs        = []string{"complete", "ring", "path", "torus", "mesh", "hypercube", "star", "regular"}
	speedProfiles = []string{"uniform", "twoclass", "integers"}
	models        = []string{"uniform", "weighted"}
	protocols     = []string{"paper", "literal", "baseline"}
	placements    = []string{"corner", "random", "proportional"}
)

// Spec names an instance. Build one with Bind or FromMeta and check it
// with Validate before calling the builders.
type Spec struct {
	Graph     string  // graph class: complete|ring|path|torus|mesh|hypercube|star|regular
	N         int     // approximate processor count; torus, mesh and hypercube round it
	Tasks     int64   // task count m; 0 means 64 per processor
	Seed      uint64  // instance, placement and trajectory seed
	Speeds    string  // speed profile: uniform|twoclass|integers
	SMax      float64 // maximum speed of the twoclass and integers profiles
	Model     string  // task model: uniform|weighted
	Protocol  string  // weighted protocol: paper|literal|baseline
	Placement string  // initial placement: corner|random|proportional
}

// Defaults is lbsim's instance: 32 processors on a ring, unit speeds,
// 64·n unit tasks all on node 0.
func Defaults() Spec {
	return Spec{Graph: "ring", N: 32, Seed: 1, Speeds: "uniform", SMax: 4,
		Model: "uniform", Protocol: "paper", Placement: "corner"}
}

// Bind defines the instance flags on fs with the given defaults and
// returns the spec fs.Parse fills in.
func Bind(fs *flag.FlagSet, d Spec) *Spec {
	s := new(Spec)
	fs.StringVar(&s.Graph, "graph", d.Graph, "graph class: "+strings.Join(graphs, "|"))
	fs.IntVar(&s.N, "n", d.N, "approximate number of processors")
	fs.Int64Var(&s.Tasks, "tasks", d.Tasks, "number of tasks (default 64·n)")
	fs.Uint64Var(&s.Seed, "seed", d.Seed, "random seed (instance, initial placement and trajectory)")
	fs.StringVar(&s.Speeds, "speeds", d.Speeds, "speed profile: "+strings.Join(speedProfiles, "|"))
	fs.Float64Var(&s.SMax, "smax", d.SMax, "maximum speed for non-uniform profiles")
	fs.StringVar(&s.Model, "model", d.Model, "task model: "+strings.Join(models, "|"))
	fs.StringVar(&s.Protocol, "protocol", d.Protocol, "weighted protocol: "+strings.Join(protocols, "|"))
	fs.StringVar(&s.Placement, "placement", d.Placement, "initial placement: "+strings.Join(placements, "|"))
	return s
}

// oneOf reports name's absence from valid as an error.
func oneOf(kind, name string, valid []string) error {
	if slices.Contains(valid, name) {
		return nil
	}
	return fmt.Errorf("unknown %s %q (want %s)", kind, name, strings.Join(valid, "|"))
}

// Validate checks every name and range without building anything. The
// graph and speed constructors still enforce their class-specific
// minimums (a ring needs three nodes); Validate rejects what no class
// accepts.
func (s Spec) Validate() error {
	for _, c := range []struct {
		kind, name string
		valid      []string
	}{
		{"graph class", s.Graph, graphs},
		{"speed profile", s.Speeds, speedProfiles},
		{"task model", s.Model, models},
		{"weighted protocol", s.Protocol, protocols},
		{"placement", s.Placement, placements},
	} {
		if err := oneOf(c.kind, c.name, c.valid); err != nil {
			return err
		}
	}
	switch {
	case s.N < 1:
		return fmt.Errorf("n must be at least 1, got %d", s.N)
	case s.Tasks < 0:
		return fmt.Errorf("tasks must be non-negative (0 = 64·n), got %d", s.Tasks)
	case math.IsNaN(s.SMax) || math.IsInf(s.SMax, 0):
		return fmt.Errorf("smax must be finite, got %g", s.SMax)
	case s.Speeds != "uniform" && s.SMax < 1:
		return fmt.Errorf("smax must be at least 1 for the %s profile, got %g", s.Speeds, s.SMax)
	}
	return nil
}

// TaskCount is the number of tasks on an n-processor system: Tasks, or
// 64·n when Tasks is 0.
func (s Spec) TaskCount(n int) int64 {
	if s.Tasks > 0 {
		return s.Tasks
	}
	return 64 * int64(n)
}

// System builds the graph, its λ₂ and the speeds.
func (s Spec) System() (*core.System, error) {
	g, lambda2, err := s.graph()
	if err != nil {
		return nil, err
	}
	speeds, err := s.speeds(g.N())
	if err != nil {
		return nil, err
	}
	return core.NewSystem(g, speeds, core.WithLambda2(lambda2))
}

// graph builds the network and its λ₂: closed forms for every class
// but regular, whose λ₂ is computed numerically.
func (s Spec) graph() (*graph.Graph, float64, error) {
	switch s.Graph {
	case "complete", "ring", "torus", "hypercube":
		class, err := experiments.ClassByKey(s.Graph)
		if err != nil {
			return nil, 0, err
		}
		g, err := class.Build(s.N)
		if err != nil {
			return nil, 0, err
		}
		return g, class.Lambda2(g), nil
	case "path":
		g, err := graph.Path(s.N)
		if err != nil {
			return nil, 0, err
		}
		return g, spectral.Lambda2Path(s.N), nil
	case "mesh":
		side := sqrtSide(s.N)
		g, err := graph.Mesh(side, side)
		if err != nil {
			return nil, 0, err
		}
		return g, spectral.Lambda2Mesh(side, side), nil
	case "star":
		g, err := graph.Star(s.N)
		if err != nil {
			return nil, 0, err
		}
		return g, spectral.Lambda2Star(s.N), nil
	case "regular":
		g, err := graph.RandomRegular(s.N, 4, rng.New(s.Seed))
		if err != nil {
			return nil, 0, err
		}
		l2, err := spectral.Lambda2(g)
		if err != nil {
			return nil, 0, err
		}
		return g, l2, nil
	}
	return nil, 0, oneOf("graph class", s.Graph, graphs)
}

// sqrtSide is the side of the smallest square mesh with at least n
// nodes.
func sqrtSide(n int) int {
	side := 1
	for side*side < n {
		side++
	}
	return side
}

func (s Spec) speeds(n int) (machine.Speeds, error) {
	switch s.Speeds {
	case "uniform":
		return machine.Uniform(n), nil
	case "twoclass":
		return machine.TwoClass(n, 0.25, s.SMax)
	case "integers":
		return machine.RandomIntegers(n, int(s.SMax), rng.New(s.Seed+1))
	}
	return nil, oneOf("speed profile", s.Speeds, speedProfiles)
}

// Counts is the initial uniform placement of TaskCount(sys.N()) unit
// tasks.
func (s Spec) Counts(sys *core.System) ([]int64, error) {
	n, m := sys.N(), s.TaskCount(sys.N())
	switch s.Placement {
	case "corner":
		return workload.AllOnOne(n, m, 0)
	case "random":
		return workload.UniformRandom(n, m, rng.New(s.Seed+2))
	case "proportional":
		return workload.Proportional(sys.Speeds(), m)
	}
	return nil, oneOf("placement", s.Placement, placements)
}

// Weighted is the initial weighted placement: TaskCount(sys.N()) tasks
// with uniform(0.1, 1.0) weights. "proportional" is the interesting
// start for heterogeneous speeds at scale: every node active, loads
// near balance.
func (s Spec) Weighted(sys *core.System) ([]task.Weights, error) {
	if err := oneOf("placement", s.Placement, placements); err != nil {
		return nil, err
	}
	weights, err := task.RandomWeights(int(s.TaskCount(sys.N())), 0.1, 1.0, rng.New(s.Seed+3))
	if err != nil {
		return nil, err
	}
	switch s.Placement {
	case "corner":
		return workload.WeightedAllOnOne(sys.N(), weights, 0)
	case "random":
		return workload.WeightedUniformRandom(sys.N(), weights, rng.New(s.Seed+2))
	default:
		return workload.WeightedProportional(sys.Speeds(), weights)
	}
}

// WeightedProtocol resolves the Protocol name; the uniform model
// always runs Algorithm 1.
func (s Spec) WeightedProtocol() (core.WeightedProtocol, error) {
	switch s.Protocol {
	case "paper":
		return core.Algorithm2{}, nil
	case "literal":
		return core.Algorithm2Literal{}, nil
	case "baseline":
		return core.BaselineWeighted{}, nil
	}
	return nil, oneOf("weighted protocol", s.Protocol, protocols)
}

// metaKeys is the journal meta key set, in Spec field order.
var metaKeys = []string{"graph", "n", "tasks", "seed", "speeds", "smax", "model", "protocol", "placement"}

// Meta is the spec as journal metadata: the keys FromMeta reads back.
func (s Spec) Meta() map[string]string {
	return map[string]string{
		"graph":     s.Graph,
		"n":         strconv.Itoa(s.N),
		"tasks":     strconv.FormatInt(s.Tasks, 10),
		"seed":      strconv.FormatUint(s.Seed, 10),
		"speeds":    s.Speeds,
		"smax":      strconv.FormatFloat(s.SMax, 'g', -1, 64),
		"model":     s.Model,
		"protocol":  s.Protocol,
		"placement": s.Placement,
	}
}

// FromMeta inverts Meta and validates the result. Keys outside the set
// (lbd records its engine) are ignored. It never builds anything, so a
// corrupt journal fails here before any graph or λ₂ work.
func FromMeta(meta map[string]string) (Spec, error) {
	var s Spec
	for _, k := range metaKeys {
		v, ok := meta[k]
		if !ok {
			return Spec{}, fmt.Errorf("journal meta missing %q; not written by lbd?", k)
		}
		var err error
		switch k {
		case "graph":
			s.Graph = v
		case "n":
			s.N, err = strconv.Atoi(v)
		case "tasks":
			s.Tasks, err = strconv.ParseInt(v, 10, 64)
		case "seed":
			s.Seed, err = strconv.ParseUint(v, 10, 64)
		case "speeds":
			s.Speeds = v
		case "smax":
			s.SMax, err = strconv.ParseFloat(v, 64)
		case "model":
			s.Model = v
		case "protocol":
			s.Protocol = v
		case "placement":
			s.Placement = v
		}
		if err != nil {
			return Spec{}, fmt.Errorf("journal meta %s=%q: %w", k, v, err)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("journal meta: %w", err)
	}
	return s, nil
}
