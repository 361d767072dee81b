package core

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers = %d", c.Workers)
	}
	if c.Localities != 1 || c.DCutoff != 1 || c.Budget != 10_000 || c.Seed != 1 {
		t.Errorf("bad defaults: %+v", c)
	}
}

func TestConfigLocalitiesClamped(t *testing.T) {
	c := Config{Workers: 3, Localities: 10}.withDefaults()
	if c.Localities != 3 {
		t.Errorf("Localities = %d, want clamped to 3", c.Localities)
	}
}

func TestConfigUserValuesKept(t *testing.T) {
	c := Config{Workers: 5, Localities: 2, DCutoff: 7, Budget: 99, Seed: 42}.withDefaults()
	if c.Workers != 5 || c.Localities != 2 || c.DCutoff != 7 || c.Budget != 99 || c.Seed != 42 {
		t.Errorf("defaults overwrote user values: %+v", c)
	}
}

// Property: pools never lose or duplicate tasks under random sequences
// of push/pop/steal, against a multiset reference model.
func TestQuickPoolsAgainstModel(t *testing.T) {
	for _, kind := range []PoolKind{DepthPoolKind, PrioBucketKind} {
		kind := kind
		f := func(ops []uint8) bool {
			p := newPool[int](kind)
			inPool := map[int]int{} // task id -> count
			next := 0
			for _, op := range ops {
				switch op % 3 {
				case 0:
					p.Push(Task[int]{Node: next, Depth: int(op) % 5})
					inPool[next]++
					next++
				case 1:
					if task, ok := p.Pop(); ok {
						if inPool[task.Node] != 1 {
							return false
						}
						delete(inPool, task.Node)
					} else if len(inPool) != 0 {
						return false
					}
				case 2:
					if task, ok := stealOne(p); ok {
						if inPool[task.Node] != 1 {
							return false
						}
						delete(inPool, task.Node)
					} else if len(inPool) != 0 {
						return false
					}
				}
			}
			if p.Size() != len(inPool) {
				return false
			}
			for {
				task, ok := p.Pop()
				if !ok {
					break
				}
				if inPool[task.Node] != 1 {
					return false
				}
				delete(inPool, task.Node)
			}
			return len(inPool) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatalf("pool kind %d: %v", kind, err)
		}
	}
}

func TestTotalStatsSumsWorkers(t *testing.T) {
	ws := newWorkers[struct{}, int](struct{}{}, nil, Config{Workers: 3}, nil,
		func(*thief[int]) visitor[int] { return nil })
	ws[0].stats.Nodes = 5
	ws[1].stats.Nodes = 7
	ws[2].stats.Prunes = 2
	ws[2].stats.Spawns = 4
	s := totalStats(ws)
	if s.Nodes != 12 || s.Prunes != 2 || s.Spawns != 4 || s.Workers != 3 {
		t.Errorf("total = %+v", s)
	}
}
