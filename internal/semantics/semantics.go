// Package semantics is an executable version of the paper's formal
// model of parallel backtracking search (Section 3): materialised
// ordered trees, configurations ⟨σ, Tasks, θ1…θn⟩, and the reduction
// rules of Figure 2, driven by a seeded nondeterministic scheduler.
//
// Its purpose is validation, not performance: the property tests in
// this package check Theorems 3.1–3.3 — any interleaving of reductions
// terminates and computes the fold (enumeration) or the maximum
// (optimisation/decision) of the objective over the tree, regardless
// of how pruning reshapes the tree mid-search.
//
// Nodes are represented by their path strings over a small alphabet,
// so the prefix order ⪯ of the paper is literal string prefixing and
// depth is string length.
package semantics

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Tree is a materialised ordered search tree. Children lists hold the
// sibling order ⋖; H is the objective function h.
type Tree struct {
	Children map[string][]string
	H        map[string]int
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return len(t.H) }

// Sum is Σ h(v) — the reference answer for enumeration.
func (t *Tree) Sum() int {
	s := 0
	for _, v := range t.H {
		s += v
	}
	return s
}

// Max is max h(v) — the reference answer for optimisation.
func (t *Tree) Max() int {
	best := 0
	first := true
	for _, v := range t.H {
		if first || v > best {
			best, first = v, false
		}
	}
	return best
}

// SubtreeMax returns max h over subtree(v) in the *original* tree; it
// induces the admissible pruning relation u ▷ v ⇔ h(u) >= SubtreeMax(v).
func (t *Tree) SubtreeMax(v string) int {
	best := t.H[v]
	for _, c := range t.Children[v] {
		if m := t.SubtreeMax(c); m > best {
			best = m
		}
	}
	return best
}

// GenTree builds a random irregular tree — the one the engine's tests
// search too: 2..maxBranch+1 children above depth 3, 0..maxBranch below,
// thinned again past half of maxDepth; h values in [0, 1000).
func GenTree(seed int64, maxBranch, maxDepth int) *Tree {
	r := rand.New(rand.NewSource(seed))
	t := &Tree{Children: map[string][]string{}, H: map[string]int{}}
	var build func(id string, depth int)
	build = func(id string, depth int) {
		t.H[id] = r.Intn(1000)
		if depth >= maxDepth {
			return
		}
		var b int
		if depth < 3 {
			b = 2 + r.Intn(maxBranch)
		} else if b = r.Intn(maxBranch + 1); depth > maxDepth/2 && b > 0 {
			b = r.Intn(b + 1)
		}
		for i := 0; i < b; i++ {
			c := id + string(rune('a'+i))
			t.Children[id] = append(t.Children[id], c)
			build(c, depth+1)
		}
	}
	build("", 0)
	return t
}

// Subtree is a task: a set of nodes with a least element Root,
// prefix-closed above the root (Section 3.1).
type Subtree struct {
	Root  string
	Nodes map[string]bool
}

// FullSubtree materialises subtree(tree, root).
func FullSubtree(t *Tree, root string) *Subtree {
	s := &Subtree{Root: root, Nodes: map[string]bool{}}
	var add func(v string)
	add = func(v string) {
		s.Nodes[v] = true
		for _, c := range t.Children[v] {
			add(c)
		}
	}
	add(root)
	return s
}

// traversal returns the nodes of s in ≪ order: depth-first, children
// in sibling order, restricted to the nodes still present in s.
func (s *Subtree) traversal(t *Tree) []string {
	var out []string
	var walk func(v string)
	walk = func(v string) {
		out = append(out, v)
		for _, c := range t.Children[v] {
			if s.Nodes[c] {
				walk(c)
			}
		}
	}
	if s.Nodes[s.Root] {
		walk(s.Root)
	}
	return out
}

// next returns next(s, v): the node immediately after v in traversal
// order, or "" (with ok false) if v is the last.
func (s *Subtree) next(t *Tree, v string) (string, bool) {
	tr := s.traversal(t)
	for i, u := range tr {
		if u == v {
			if i+1 < len(tr) {
				return tr[i+1], true
			}
			return "", false
		}
	}
	return "", false
}

// succ returns succ(s, v): all nodes after v in traversal order.
func (s *Subtree) succ(t *Tree, v string) []string {
	tr := s.traversal(t)
	for i, u := range tr {
		if u == v {
			return tr[i+1:]
		}
	}
	return nil
}

// lowest returns lowest(s, v): the members of succ(s, v) at minimum
// depth, in traversal order.
func (s *Subtree) lowest(t *Tree, v string) []string {
	su := s.succ(t, v)
	if len(su) == 0 {
		return nil
	}
	min := len(su[0])
	for _, u := range su {
		if len(u) < min {
			min = len(u)
		}
	}
	var out []string
	for _, u := range su {
		if len(u) == min {
			out = append(out, u)
		}
	}
	return out
}

// extract removes subtree(s, u) from s and returns it as a new task.
func (s *Subtree) extract(u string) *Subtree {
	out := &Subtree{Root: u, Nodes: map[string]bool{}}
	for v := range s.Nodes {
		if strings.HasPrefix(v, u) {
			out.Nodes[v] = true
			delete(s.Nodes, v)
		}
	}
	return out
}

// Kind is the search type of Section 3.2.
type Kind int

const (
	// Enumeration folds h into the (int, +, 0) monoid.
	Enumeration Kind = iota
	// Optimisation tracks an incumbent maximising h.
	Optimisation
	// Decision maximises min(h, Target) and short-circuits at Target.
	Decision
)

// Thread is θi: idle, or an active search ⟨S, v⟩^k.
type Thread struct {
	Active bool
	S      *Subtree
	V      string
	K      int
}

// Config is a configuration ⟨σ, Tasks, θ1…θn⟩.
type Config struct {
	Kind    Kind
	Target  int // decision: the greatest element of the bounded order
	Acc     int // σ for enumeration
	Inc     string
	IncSet  bool // σ = {Inc} for optimisation/decision; root is set at start
	Tasks   []*Subtree
	Threads []Thread

	tree      *Tree
	processed map[string]int // instrumentation: visits per node
	Steps     int
}

// NewConfig builds the initial configuration: one task holding the
// whole tree, all threads idle, σ = ⟨0⟩ or {ε}.
func NewConfig(t *Tree, kind Kind, target, threads int) *Config {
	c := &Config{
		Kind:      kind,
		Target:    target,
		Tasks:     []*Subtree{FullSubtree(t, "")},
		Threads:   make([]Thread, threads),
		tree:      t,
		processed: map[string]int{},
	}
	if kind != Enumeration {
		c.Inc, c.IncSet = "", true // {ε}: the root is the initial incumbent
	}
	return c
}

// h applies the objective, cut at Target for decision searches (the
// bounded order of Section 3.2).
func (c *Config) h(v string) int {
	x := c.tree.H[v]
	if c.Kind == Decision && x > c.Target {
		return c.Target
	}
	return x
}

// process is the →Ni node-processing step for the thread's current
// node: (accumulate) for enumeration, (strengthen)/(skip) otherwise.
func (c *Config) process(v string) {
	c.processed[v]++
	switch c.Kind {
	case Enumeration:
		c.Acc += c.h(v)
	default:
		if c.h(v) > c.h(c.Inc) {
			c.Inc = v
		}
	}
}

// Final reports whether the configuration is final: empty task queue,
// all threads idle.
func (c *Config) Final() bool {
	if len(c.Tasks) != 0 {
		return false
	}
	for _, th := range c.Threads {
		if th.Active {
			return false
		}
	}
	return true
}

// Result returns σ: the accumulator or the incumbent's objective.
func (c *Config) Result() int {
	if c.Kind == Enumeration {
		return c.Acc
	}
	return c.h(c.Inc)
}

// ProcessedCounts exposes the per-node visit instrumentation.
func (c *Config) ProcessedCounts() map[string]int { return c.processed }

// RuleName identifies a reduction rule of Figure 2.
type RuleName string

const (
	RuleSchedule     RuleName = "schedule"
	RuleStep         RuleName = "step" // (expand)/(backtrack)/(terminate) ∘ →Ni
	RulePrune        RuleName = "prune"
	RuleShortcircuit RuleName = "shortcircuit"
	RuleSpawn        RuleName = "spawn"
	RuleSpawnDepth   RuleName = "spawn-depth"
	RuleSpawnBudget  RuleName = "spawn-budget"
	RuleSpawnStack   RuleName = "spawn-stack"
)

// Params tunes the derived spawn rules.
type Params struct {
	DCutoff int
	KBudget int
}

// move is one applicable reduction at a specific thread.
type move struct {
	rule   RuleName
	thread int
	arg    string // spawn: the node to hive off
}

// applicable enumerates every applicable (rule, thread) instance.
func (c *Config) applicable(p Params, enabled map[RuleName]bool) []move {
	var ms []move
	on := func(r RuleName) bool { return enabled == nil || enabled[r] }
	for i := range c.Threads {
		th := &c.Threads[i]
		if !th.Active {
			if len(c.Tasks) > 0 && on(RuleSchedule) {
				ms = append(ms, move{RuleSchedule, i, ""})
			}
			continue
		}
		if on(RuleStep) {
			ms = append(ms, move{RuleStep, i, ""})
		}
		if c.Kind != Enumeration && on(RulePrune) {
			// u ▷ v with u = Inc: h(Inc) >= SubtreeMax(v), and the
			// subtree below v must be non-empty.
			if c.h(c.Inc) >= c.subtreeMaxIn(th.S, th.V) && c.strictSubtreeNonEmpty(th.S, th.V) {
				ms = append(ms, move{RulePrune, i, ""})
			}
		}
		if c.Kind == Decision && on(RuleShortcircuit) && c.h(c.Inc) >= c.Target {
			ms = append(ms, move{RuleShortcircuit, i, ""})
		}
		if on(RuleSpawn) {
			for _, u := range th.S.succ(c.tree, th.V) {
				ms = append(ms, move{RuleSpawn, i, u})
			}
		}
		if on(RuleSpawnDepth) && len(th.V) < p.DCutoff {
			if len(c.childrenIn(th.S, th.V)) > 0 {
				ms = append(ms, move{RuleSpawnDepth, i, ""})
			}
		}
		if on(RuleSpawnBudget) && th.K >= p.KBudget {
			if len(th.S.lowest(c.tree, th.V)) > 0 {
				ms = append(ms, move{RuleSpawnBudget, i, ""})
			}
		}
		if on(RuleSpawnStack) && len(c.Tasks) == 0 {
			if lo := th.S.lowest(c.tree, th.V); len(lo) > 0 {
				ms = append(ms, move{RuleSpawnStack, i, lo[0]})
			}
		}
	}
	return ms
}

// subtreeMaxIn is max h over the nodes of subtree(S, v), the dynamic
// (possibly already pruned) version of Tree.SubtreeMax. Pruning
// justified against the static bound remains sound; this dynamic
// variant is used to decide rule applicability in the driver.
func (c *Config) subtreeMaxIn(s *Subtree, v string) int {
	best := c.h(v)
	for u := range s.Nodes {
		if strings.HasPrefix(u, v) {
			if x := c.h(u); x > best {
				best = x
			}
		}
	}
	return best
}

func (c *Config) strictSubtreeNonEmpty(s *Subtree, v string) bool {
	for u := range s.Nodes {
		if u != v && strings.HasPrefix(u, v) {
			return true
		}
	}
	return false
}

func (c *Config) childrenIn(s *Subtree, v string) []string {
	var out []string
	for _, ch := range c.tree.Children[v] {
		if s.Nodes[ch] {
			out = append(out, ch)
		}
	}
	return out
}

// apply performs one reduction.
func (c *Config) apply(m move) {
	th := &c.Threads[m.thread]
	c.Steps++
	switch m.rule {
	case RuleSchedule:
		s := c.Tasks[0]
		c.Tasks = c.Tasks[1:]
		*th = Thread{Active: true, S: s, V: s.Root, K: 0}
		c.process(s.Root)
	case RuleStep:
		v2, ok := th.S.next(c.tree, th.V)
		if !ok {
			*th = Thread{} // (terminate), then (noop)
			return
		}
		if !strings.HasPrefix(v2, th.V) {
			th.K++ // (backtrack)
		}
		th.V = v2 // (expand) or (backtrack)
		c.process(v2)
	case RulePrune:
		for u := range th.S.Nodes {
			if u != th.V && strings.HasPrefix(u, th.V) {
				delete(th.S.Nodes, u)
			}
		}
	case RuleShortcircuit:
		c.Tasks = nil
		for i := range c.Threads {
			c.Threads[i] = Thread{}
		}
	case RuleSpawn:
		c.Tasks = append(c.Tasks, th.S.extract(m.arg))
	case RuleSpawnDepth:
		for _, ch := range c.childrenIn(th.S, th.V) {
			c.Tasks = append(c.Tasks, th.S.extract(ch))
		}
	case RuleSpawnBudget:
		for _, u := range th.S.lowest(c.tree, th.V) {
			c.Tasks = append(c.Tasks, th.S.extract(u))
		}
		th.K = 0
	case RuleSpawnStack:
		c.Tasks = append(c.Tasks, th.S.extract(m.arg))
	default:
		panic(fmt.Sprintf("semantics: unknown rule %q", m.rule))
	}
}

// Run drives the configuration with a seeded random scheduler until it
// is final, returning the number of reduction steps. enabled limits
// the rule set (nil = all rules). maxSteps guards against divergence;
// exceeding it panics, which the termination property test would
// surface.
func (c *Config) Run(seed int64, p Params, enabled map[RuleName]bool, maxSteps int) int {
	r := rand.New(rand.NewSource(seed))
	for !c.Final() {
		ms := c.applicable(p, enabled)
		if len(ms) == 0 {
			panic("semantics: stuck non-final configuration")
		}
		// Spawn instances can vastly outnumber traversal steps; pick
		// the rule class first, then an instance, so random schedules
		// reach every behaviour.
		byRule := map[RuleName][]move{}
		var rules []RuleName
		for _, m := range ms {
			if len(byRule[m.rule]) == 0 {
				rules = append(rules, m.rule)
			}
			byRule[m.rule] = append(byRule[m.rule], m)
		}
		sort.Slice(rules, func(i, j int) bool { return rules[i] < rules[j] })
		picks := byRule[rules[r.Intn(len(rules))]]
		c.apply(picks[r.Intn(len(picks))])
		if c.Steps > maxSteps {
			panic("semantics: step budget exceeded (termination violated?)")
		}
	}
	return c.Steps
}
