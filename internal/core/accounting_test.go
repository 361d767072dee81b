package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"yewpar/internal/dist"
	"yewpar/internal/semantics"
)

// liveAudit is what a test knows about one search's live count: the
// running sum of every AddTasks delta any locality made, by the rank that
// made it. A locality's own contribution is never negative — every
// completion it counts, or ack it hears, settles a registration it made —
// and neither, so, is the sum.
type liveAudit struct {
	t       *testing.T
	sum     atomic.Int64   // all ranks
	perRank []atomic.Int64 // by the rank that made the call
	// over, if set, is asked at each zero of the sum whether the search
	// really is over; onWork, if set, hears each registration of work once
	// the transport has; onHeard, if set, each cancel rank 0 hears first.
	over    func() error
	onWork  func(rank int)
	onHeard func(from int)
}

// auditedTransport is a locality's transport with its AddTasks audited:
// the live count a termination detector sees may run late, never early.
type auditedTransport struct {
	dist.Transport
	a    *liveAudit
	rank int
}

func (tr *auditedTransport) AddTasks(delta int64) {
	a := tr.a
	if s := a.perRank[tr.rank].Add(delta); s < 0 {
		a.t.Errorf("rank %d's live count fell to %d (it added %d)", tr.rank, s, delta)
	}
	if s := a.sum.Add(delta); s == 0 && a.over != nil {
		if err := a.over(); err != nil {
			a.t.Error(err)
		}
	}
	tr.Transport.AddTasks(delta)
	if delta > 0 && a.onWork != nil {
		a.onWork(tr.rank)
	}
}

// Start hands rank 0's endpoint a locality that tells onHeard of each
// cancel first (a semantics tree's, which every row with a cancel kill
// searches).
func (tr *auditedTransport) Start(hd dist.Handler) {
	if tr.rank == 0 && tr.a.onHeard != nil {
		switch l := hd.(type) {
		case *locality[string]:
			hd = hearing{l, tr.a.onHeard}
		case splitter[string]:
			hd = splitHearing{hearing{l.locality, tr.a.onHeard}}
		}
	}
	tr.Transport.Start(hd)
}

type hearing struct {
	*locality[string]
	heard func(from int)
}

func (h hearing) OnCancel(from int) { h.heard(from); h.locality.OnCancel(from) }

// splitHearing is hearing for a splitting locality, served as a splitter.
type splitHearing struct{ hearing }

func (h splitHearing) ServeSplit(thief, want int) []dist.WireTask {
	return splitter[string]{h.locality}.ServeSplit(thief, want)
}

// audited is cfg with the exit invariant of ROADMAP item 1 (iv) asserted:
// every search run under it, unless cancelled, must leave each in-process
// locality quiescent — ledger empty, nothing on disk, pool empty, no
// finish unsettled (locality.quiescent).
func audited(t *testing.T, cfg Config) Config {
	cfg.exit = func(_ int, left error) {
		if left != nil {
			t.Error(left)
		}
	}
	return cfg
}

// auditedEnum is search for an enumeration on loopback localities, with
// every transport audited and, from outside the accounting, how much work
// is really left: tasks running (engine.taskHook) and nodes not yet
// visited (a queued task's root is one).
func auditedEnum(t *testing.T, tree *semantics.Tree, coord Coordination, cfg Config) {
	cfg = cfg.withDefaults()
	rule := ruleFor(coord, cfg)
	fab := newFabric[string](nil, nil, rule, cfg)
	defer fab.close()
	var running, visited atomic.Int64
	a := &liveAudit{t: t, perRank: make([]atomic.Int64, len(fab.locs)), over: func() error {
		// Zero is the detector's cue. Everything must be over: had a
		// completion been counted early, or a spawn late, a task would
		// still be running or a node unvisited here.
		if r, v := running.Load(), visited.Load(); r != 0 || v != int64(tree.Size()) {
			return fmt.Errorf("live count reached 0 with %d tasks running and %d of %d nodes visited", r, v, tree.Size())
		}
		return nil
	}}
	for i, l := range fab.locs {
		l.tr = &auditedTransport{Transport: l.tr, a: a, rank: i}
	}
	p := enumProblem()
	p.Objective = func(tt *semantics.Tree, n string) int64 {
		visited.Add(1)
		return hOf(tt, n)
	}
	st, root := enumeration(tree, p), ""
	ws := newWorkers(tree, st.gen, cfg, fab.locs, st.attach(fab))
	e := newEngine(rule, cfg, ws, fab, newPrioAssigner(cfg.Order, tree, root, st.bound))
	e.taskHook = func(delta int) { running.Add(int64(delta)) }
	fab.start()
	e.runPoolWorkers(root)
	for _, l := range fab.locs {
		if err := l.quiescent(); err != nil {
			t.Error(err)
		}
	}

	res, _ := st.local(ws, totalStats(ws))
	if res.Value != int64(tree.Sum()) || res.Stats.Nodes != int64(tree.Size()) {
		t.Errorf("sum %d over %d nodes, want %d over %d", res.Value, res.Stats.Nodes, tree.Sum(), tree.Size())
	}
	if s := a.sum.Load(); s != 0 {
		t.Errorf("live count is %d after the workers joined, want 0", s)
	}
	for rank := range a.perRank {
		if s := a.perRank[rank].Load(); s != 0 {
			t.Errorf("rank %d's contribution to the live count is %d after the workers joined, want 0", rank, s)
		}
	}
}

// Spawns are registered in runs and completions settled late (see
// engine.finishTask): whatever the coordination, the worker count and
// the number of localities, the count must never be negative, never be
// zero while anything is unfinished, and be exactly zero at the end.
func TestLiveCountNeverEarly(t *testing.T) {
	coords := []struct {
		coord Coordination
		cfg   Config
	}{
		{DepthBounded, Config{DCutoff: 3}},
		{Budget, Config{Budget: 7}},
		{StackStealing, Config{}},
		{Replicable, Config{DCutoff: 3}},
	}
	for seed := int64(1); seed <= 200; seed++ {
		tree := semantics.GenTree(seed, 4, 7)
		for _, c := range coords {
			for _, workers := range []int{1, 2, 4} {
				for _, locs := range []int{1, 2} {
					cfg := c.cfg
					cfg.Workers, cfg.Localities, cfg.Seed, cfg.Chunked = workers, locs, seed, seed%2 == 0
					t.Run(fmt.Sprintf("seed=%d/%v/w%d/l%d", seed, c.coord, workers, locs), func(t *testing.T) {
						auditedEnum(t, tree, c.coord, cfg)
					})
				}
			}
		}
	}
}

// quiescent must name each of the four things a terminated locality may
// not hold; everywhere else it is asserted nil.
func TestQuiescentReportsWhatIsLeft(t *testing.T) {
	fab, ws := testWorkers[int](Config{Workers: 4, Localities: 2}.withDefaults())
	defer fab.close()
	loc := fab.home // of workers 0 and 2
	holds := func(what string, want bool) {
		t.Helper()
		if err := loc.quiescent(); (err != nil) != want {
			t.Fatalf("%s: quiescent() = %v", what, err)
		}
	}
	holds("fresh", false)
	ws[2].shard.Push(Task[int]{Node: 1})
	holds("a task in the pool", true)
	task, _ := ws[2].shard.Pop()
	id, _ := loc.led.handOver(1, task)
	holds("a hand-over unacked", true)
	loc.led.retire(id)
	ws[0].finished++
	holds("a finish unsettled", true)
	ws[0].settle()
	loc.mem.onDisk.Add(1)
	holds("a task on disk", true)
	loc.mem.onDisk.Add(-1)
	holds("drained", false)
}
