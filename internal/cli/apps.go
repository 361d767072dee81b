package cli

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"

	"yewpar/internal/apps/knapsack"
	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/nqueens"
	"yewpar/internal/apps/semigroups"
	"yewpar/internal/apps/sip"
	"yewpar/internal/apps/tsp"
	"yewpar/internal/apps/uts"
	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
	"yewpar/internal/instances"
)

// app is one row of the application table, and all the driver knows of
// an application: adding one is a package under internal/apps that
// exports a runner, and a row here.
type app struct {
	name string
	// kind is the search type the package's runner composes — "opt",
	// "decide" or "enum", for core.DistOpt, DistDecide and DistEnum.
	// -skeleton bestfirst orders by the bound only an "opt" has.
	kind string
	// dist says the package has a node codec, so its runner takes a
	// transport and the row is offered under -dist.
	dist bool
	// build turns the flags into an instance. It runs before any
	// transport exists: a missing -f file or a kclique without its bound
	// fails a coordinator before it listens, and one command line names
	// one instance whether or not it says -dist.
	build func(o *Options) (search, error)
}

// search runs a built instance under a coordination — all of it when tr
// is nil, this process's locality of it otherwise — and returns the
// answer line.
type search func(tr dist.Transport, coord core.Coordination, cfg core.Config) (string, core.Stats, error)

// bind fixes a package's runner to one instance. answer is the format of
// the answer line, with one verb for the value the runner returns.
func bind[S, V any](run func(dist.Transport, S, core.Coordination, core.Config) (V, core.Stats, error), s S, answer string) search {
	return func(tr dist.Transport, coord core.Coordination, cfg core.Config) (string, core.Stats, error) {
		v, stats, err := run(tr, s, coord, cfg)
		return fmt.Sprintf(answer, v), stats, err
	}
}

var apps = []app{
	{"maxclique", "opt", true, func(o *Options) (search, error) {
		g, err := LoadGraph(o)
		return bind(maxclique.Run, maxclique.NewSpace(g), "maximum clique size: %d"), err
	}},
	{"kclique", "decide", true, func(o *Options) (search, error) {
		if o.KBound <= 0 {
			return nil, errors.New("kclique requires -decision-bound k > 0")
		}
		g, err := LoadGraph(o)
		s := maxclique.NewSpace(g)
		return func(tr dist.Transport, coord core.Coordination, cfg core.Config) (string, core.Stats, error) {
			found, stats, err := maxclique.RunDecide(tr, s, o.KBound, coord, cfg)
			return fmt.Sprintf("%d-clique exists: %v", o.KBound, found), stats, err
		}, err
	}},
	{"knapsack", "opt", true, func(o *Options) (search, error) {
		if err := inRange("items", o.Items, 0, math.MaxInt32); err != nil {
			return nil, err
		}
		s := knapsack.Generate(o.Items, 10_000, knapsack.SubsetSum, o.Seed)
		return bind(knapsack.Run, s, fmt.Sprintf("optimal profit: %%d (items=%d cap=%d)", len(s.Items), s.Cap)), nil
	}},
	{"tsp", "opt", true, func(o *Options) (search, error) {
		if err := inRange("cities", o.Cities, 1, 64); err != nil {
			return nil, err
		}
		s := tsp.GenerateEuclidean(o.Cities, 1000, o.Seed)
		return bind(tsp.Run, s, fmt.Sprintf("optimal tour cost: %%d (%d cities)", s.N)), nil
	}},
	{"sip", "decide", true, func(o *Options) (search, error) {
		var s *sip.Space
		if o.File == "" {
			if err := cmp.Or(inRange("n", o.N, 0, math.MaxInt32), inRange("pattern", o.PatN, 0, o.N)); err != nil {
				return nil, err
			}
			s = sip.GenerateSat(o.N, o.P, o.PatN, 0.2, o.Seed)
		} else {
			// The pattern is the target's first -pattern vertices, induced.
			g, err := LoadGraph(o)
			if err == nil {
				err = inRange("pattern", o.PatN, 0, math.MaxInt32)
			}
			if err != nil {
				return nil, err
			}
			vs := make([]int, min(o.PatN, g.N))
			for i := range vs {
				vs[i] = i
			}
			pat, _ := g.InducedSubgraph(vs)
			s = sip.NewSpace(pat, g)
		}
		return bind(sip.Run, s, fmt.Sprintf("pattern (%d vertices) found in target (%d vertices): %%v", s.P.N, s.T.N)), nil
	}},
	{"uts", "enum", true, func(o *Options) (search, error) {
		shape, ok := map[string]uts.Shape{"binomial": uts.Binomial, "geometric": uts.Geometric}[o.UTSShape]
		if !ok {
			return nil, fmt.Errorf("-uts-shape %q: want binomial or geometric", o.UTSShape)
		}
		s := &uts.Space{Shape: shape, B0: o.UTSB0, M: o.UTSM, Q: o.UTSQ, MaxDepth: o.UTSDepth, Seed: o.Seed}
		return bind(uts.Run, s, "tree size: %d"), nil
	}},
	{"ns", "enum", false, func(o *Options) (search, error) {
		if err := inRange("genus", o.Genus, 0, 63); err != nil {
			return nil, err
		}
		return bind(semigroups.Run, semigroups.NewSpace(o.Genus), fmt.Sprintf("numerical semigroups of genus %d: %%d", o.Genus)), nil
	}},
	{"queens", "enum", true, func(o *Options) (search, error) {
		if err := inRange("n", o.N, 1, 32); err != nil {
			return nil, err
		}
		return bind(nqueens.Run, nqueens.NewSpace(o.N), fmt.Sprintf("%d-queens solutions: %%d", o.N)), nil
	}},
}

// inRange rejects a flag value no instance or search can be made from,
// naming both.
func inRange[T cmp.Ordered](flag string, v, lo, hi T) error {
	if v < lo || v > hi {
		return fmt.Errorf("-%s %v out of range: want %v to %v", flag, v, lo, hi)
	}
	return nil
}

// appNames lists the table's rows, or only those offered under -dist.
func appNames(sep string, distOnly bool) string {
	var names []string
	for _, a := range apps {
		if a.dist || !distOnly {
			names = append(names, a.name)
		}
	}
	return strings.Join(names, sep)
}

// LoadGraph resolves the graph input: a DIMACS file, a named
// instance, or a generated G(n, p).
func LoadGraph(o *Options) (*graph.Graph, error) {
	if o.File != "" {
		f, err := os.Open(o.File)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ParseDIMACS(f)
	}
	if o.Gen != "" {
		for _, inst := range instances.Table1() {
			if inst.Name == o.Gen {
				return inst.Gen(), nil
			}
		}
		if o.Gen == "spreads_H44" {
			g, _ := instances.SpreadsH44Like()
			return g, nil
		}
		return nil, fmt.Errorf("unknown instance %q", o.Gen)
	}
	if err := inRange("n", o.N, 0, math.MaxInt32); err != nil {
		return nil, err
	}
	return graph.Random(o.N, o.P, o.Seed), nil
}
