package core_test

// Runnable godoc examples composing search applications from lazy node
// generators and skeletons, in the style of the paper's Listing 5.

import (
	"fmt"

	"yewpar/internal/core"
)

// perms is a toy search space: the tree of partial permutations of
// {0..N-1}. Leaves (complete permutations) are counted or scored.
type perms struct{ N int }

type permNode struct {
	used  uint32
	last  int
	depth int
}

func permGen(s perms, parent permNode) core.NodeGenerator[permNode] {
	if parent.depth == s.N {
		return core.EmptyGen[permNode]{}
	}
	var children []permNode
	for v := 0; v < s.N; v++ {
		if parent.used&(1<<uint(v)) == 0 {
			children = append(children, permNode{
				used:  parent.used | 1<<uint(v),
				last:  v,
				depth: parent.depth + 1,
			})
		}
	}
	return core.NewSliceGen(children)
}

// ExampleEnum counts the permutations of a 5-element set by
// folding 1 for every leaf into the sum monoid.
func ExampleEnum() {
	space := perms{N: 5}
	problem := core.EnumProblem[perms, permNode, int64]{
		Gen: permGen,
		Objective: func(s perms, n permNode) int64 {
			if n.depth == s.N {
				return 1
			}
			return 0
		},
		Monoid: core.SumInt64{},
	}
	res := core.Enum(core.Sequential, space, permNode{}, problem, core.Config{})
	fmt.Println(res.Value)
	// Output: 120
}

// ExampleOpt finds the permutation of {0..5} maximising a
// toy objective in parallel; the parallel answer must equal the
// sequential one regardless of interleaving.
func ExampleOpt() {
	space := perms{N: 6}
	objective := func(s perms, n permNode) int64 {
		if n.depth != s.N {
			return -1 << 40 // partial permutations never win
		}
		return int64(n.last * n.last)
	}
	problem := core.OptProblem[perms, permNode]{Gen: permGen, Objective: objective}
	res := core.Opt(core.DepthBounded, space, permNode{}, problem, core.Config{Workers: 4, DCutoff: 2})
	fmt.Println(res.Objective)
	// Output: 25
}

// ExampleDecide looks for any permutation ending in a
// chosen element; decision searches stop all workers at the first
// witness.
func ExampleDecide() {
	space := perms{N: 7}
	problem := core.DecisionProblem[perms, permNode]{
		Gen: permGen,
		Objective: func(s perms, n permNode) int64 {
			if n.depth == s.N && n.last == 3 {
				return 1
			}
			return 0
		},
		Target: 1,
	}
	res := core.Decide(core.StackStealing, space, permNode{}, problem, core.Config{Workers: 4})
	fmt.Println(res.Found, res.Witness.last)
	// Output: true 3
}
