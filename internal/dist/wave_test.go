package dist

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// Property tests for the termination wave, driven on a ring of waveNodes
// built here, the way the mesh endpoint wires them: randomised spawn/
// steal/complete schedules, with and without injected deaths, must never
// terminate early (a lost task would strand work) and never hang (a lost
// token would strand the deployment).

// waveModel mirrors the engine's task-accounting discipline on top of
// a ring of wave nodes. Each task carries its registration chain: the
// spawner's +1, plus one adoption +1 per hand-over (the engine's
// supervision ledger keeps every link's registration open until the
// completion ack cascades back). Completion retires every live link with
// a -1; a death drops the dead rank's registrations wholesale, and a task
// the corpse was holding replays at its most recent surviving link (or
// vanishes if none remains).
type waveModel struct {
	t      *testing.T
	nodes  []*waveNode
	closed []atomic.Bool // read by token-carrying goroutines
	done   chan struct{}
	queues [][]byte // each rank's queued tasks, by id, oldest first
	alive  []bool
	// tasks in flight: spawner and current holder of each.
	tasks []waveTask
	next  int
}

type waveTask struct {
	id     byte
	regs   []int // ranks holding a +1 registration, spawn first
	holder int
	done   bool
}

// newWaveModel builds a ring of n nodes. A token travels like a frame: it
// leaves the sender's goroutine, and one sent to a closed rank is lost (the
// watchdog regenerates the probe). A second conclusion would panic.
func newWaveModel(t *testing.T, n int) *waveModel {
	m := &waveModel{t: t, closed: make([]atomic.Bool, n), done: make(chan struct{}), queues: make([][]byte, n), alive: make([]bool, n)}
	for i := range n {
		m.alive[i] = true
		m.nodes = append(m.nodes, newWaveNode(i, n, func(to int, tok waveToken) {
			if !m.closed[to].Load() {
				go m.nodes[to].onToken(tok)
			}
		}, func() { close(m.done) }))
	}
	return m
}

func (m *waveModel) liveCount() int {
	n := 0
	for _, t := range m.tasks {
		if !t.done {
			n++
		}
	}
	return n
}

func (m *waveModel) spawn(rank int) {
	if !m.alive[rank] {
		return
	}
	id := byte(m.next)
	m.next++
	m.nodes[rank].add(1)
	m.queues[rank] = append(m.queues[rank], id)
	m.tasks = append(m.tasks, waveTask{id: id, regs: []int{rank}, holder: rank})
}

// steal moves a run of queued tasks, up to a steal batch from the front
// of the victim's queue, to the back of the thief's, as a transport's
// steal does: the thief blackens before the run becomes visible (work
// just migrated behind any token that already passed), then registers
// each adoption like the engine does.
func (m *waveModel) steal(thief, victim int) {
	if !m.alive[thief] || !m.alive[victim] || thief == victim {
		return
	}
	q := m.queues[victim]
	run := q[:min(len(q), DefaultStealBatch)]
	if len(run) == 0 {
		return
	}
	m.queues[victim] = q[len(run):]
	m.nodes[thief].blacken()
	m.nodes[thief].add(int64(len(run))) // adoption
stolen:
	for _, id := range run {
		m.queues[thief] = append(m.queues[thief], id)
		for i := range m.tasks {
			if m.tasks[i].id == id {
				m.tasks[i].regs = append(m.tasks[i].regs, thief)
				m.tasks[i].holder = thief
				continue stolen
			}
		}
		m.t.Fatalf("stole unknown task %d", id)
	}
}

// complete finishes one task currently queued at rank, if any.
func (m *waveModel) complete(rank int, rng *rand.Rand) {
	q := m.queues[rank]
	if !m.alive[rank] || len(q) == 0 {
		return
	}
	pick := rng.Intn(len(q))
	id := q[pick]
	m.queues[rank] = append(q[:pick:pick], q[pick+1:]...)
	m.finish(id)
}

func (m *waveModel) finish(id byte) {
	for i := range m.tasks {
		tk := &m.tasks[i]
		if tk.id != id || tk.done {
			continue
		}
		tk.done = true
		// The completion ack cascades down the supervision chain: every
		// surviving link retires its registration.
		for _, r := range tk.regs {
			if m.alive[r] {
				m.nodes[r].add(-1)
			}
		}
		return
	}
	m.t.Fatalf("completed unknown or already-done task %d", id)
}

// kill ends a rank: it is closed, and every survivor drops it from the
// ring, as a wire's death notice makes it do — its counter disappears,
// taking every registration it held with it. A task the corpse was
// holding replays at its most recent surviving link (whose still-open
// registration is exactly what makes the replay accounting-neutral);
// with no surviving link the task vanishes.
func (m *waveModel) kill(rank int) {
	if !m.alive[rank] {
		return
	}
	m.alive[rank] = false
	m.closed[rank].Store(true)
	m.queues[rank] = nil
	for r, w := range m.nodes {
		if m.alive[r] {
			w.markDead(rank)
		}
	}
	for i := range m.tasks {
		tk := &m.tasks[i]
		if tk.done {
			continue
		}
		tk.regs = slices.DeleteFunc(tk.regs, func(r int) bool { return r == rank })
		if tk.holder != rank {
			continue
		}
		if len(tk.regs) == 0 {
			tk.done = true // every registration died with the chain
			continue
		}
		tk.holder = tk.regs[len(tk.regs)-1]
		m.queues[tk.holder] = append(m.queues[tk.holder], tk.id)
	}
}

// settle paces the wave, as a transport's flush quantum does, until it
// concludes (true) or d has passed: every open rank ticks, and the tokens
// that puts on their way get time to land.
func (m *waveModel) settle(d time.Duration) bool {
	for end := time.Now().Add(d); ; time.Sleep(100 * time.Microsecond) {
		select {
		case <-m.done:
			return true
		default:
		}
		if time.Now().After(end) {
			return false
		}
		for r, w := range m.nodes {
			if !m.closed[r].Load() {
				w.tick()
			}
		}
	}
}

// requireNotDone paces the wave for d and fails if it concluded.
func (m *waveModel) requireNotDone(what string, d time.Duration) {
	m.t.Helper()
	if m.settle(d) {
		m.t.Fatalf("wave concluded %s: the model holds %d live tasks", what, m.liveCount())
	}
}

// drainAll completes every outstanding task and then requires the wave
// to conclude promptly.
func (m *waveModel) drainAll(rng *rand.Rand) {
	for guard := 0; m.liveCount() > 0; guard++ {
		if guard > 10_000 {
			m.t.Fatalf("model failed to drain: %d tasks stuck", m.liveCount())
		}
		for r := range m.nodes {
			m.complete(r, rng)
		}
	}
	if !m.settle(5 * time.Second) {
		m.t.Fatal("the wave never concluded after the drain (lost token?)")
	}
}

// TestWavePropertyRandomSchedules runs randomised schedules on several
// deployment sizes: interleaved spawns, steals, completions, and (on odd
// seeds) worker deaths, the wave paced between every two. After every
// step the model knows the exact live-task count, so any early conclusion
// is caught; the final drain bounds detection latency.
func TestWavePropertyRandomSchedules(t *testing.T) {
	for _, size := range []int{2, 3, 5} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", size, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed*997 + int64(size)))
				m := newWaveModel(t, size)
				// Every rank spawns once up front: all ranks latch
				// ever-active, so any surviving subset can conclude.
				for r := 0; r < size; r++ {
					m.spawn(r)
				}
				withDeaths := seed%2 == 1
				killed := 0
				for step := 0; step < 60; step++ {
					switch rng.Intn(10) {
					case 0, 1, 2:
						// Only work spawns work: a rank running one of its
						// tasks, never an idle one the token may have passed.
						if r := rng.Intn(size); len(m.queues[r]) > 0 {
							m.spawn(r)
						}
					case 3, 4, 5:
						m.steal(rng.Intn(size), rng.Intn(size))
					case 6, 7, 8:
						m.complete(rng.Intn(size), rng)
					case 9:
						// Kill a non-initiator rank, keeping >= 2 alive.
						if withDeaths && killed < size-2 {
							if r := 1 + rng.Intn(size-1); m.alive[r] {
								m.kill(r)
								killed++
							}
						}
					}
					if m.liveCount() > 0 {
						m.requireNotDone(fmt.Sprintf("at step %d", step), 100*time.Microsecond)
					}
				}
				if m.liveCount() > 0 {
					m.requireNotDone("after the schedule", 0)
				}
				m.drainAll(rng)
			})
		}
	}
}

// TestWaveSurvivesInitiatorDeath kills rank 0 mid-schedule: the lowest
// surviving rank must inherit the initiator role and still detect
// termination, and must not detect it while the survivor's work is
// live.
func TestWaveSurvivesInitiatorDeath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := newWaveModel(t, 3)
	for r := 0; r < 3; r++ {
		m.spawn(r)
	}
	// Rank 1 steals rank 2's task, then the initiator dies holding its
	// own live task (which vanishes with it).
	m.steal(1, 2)
	m.kill(0)
	m.requireNotDone("after the initiator died", 50*time.Millisecond)
	m.drainAll(rng)
}

// An unsupervised hand-over (ID 0, which the contract allows): the victim
// releases its registration as the task leaves, so only the receiver's
// colour keeps a round from summing past it. Rank 2 holds the token and
// two tasks; one goes to rank 0, which launched the round, and on to rank
// 1, which the token has passed; rank 2 then drains and forwards a token
// that sums to zero while rank 1 holds the task.
func TestWaveUnsupervisedHandOver(t *testing.T) {
	m := newWaveModel(t, 3)
	w := m.nodes
	w[2].add(2)
	for held := false; !held; m.settle(time.Millisecond) {
		w[2].mu.Lock()
		held = w[2].held != nil
		w[2].mu.Unlock()
	}
	for _, hop := range [][2]int{{2, 0}, {0, 1}} {
		w[hop[0]].add(-1)
		w[hop[1]].blacken()
		w[hop[1]].add(1)
	}
	w[2].add(-1)
	if m.settle(50 * time.Millisecond) {
		t.Fatal("the wave concluded with rank 1 holding the task")
	}
	w[1].add(-1)
	if !m.settle(5 * time.Second) {
		t.Fatal("the wave never concluded after the drain")
	}
}

// TestWaveNeverActiveStaysOpen pins the ever-active guard: a
// deployment where nothing is ever spawned must not conclude — an
// empty search hasn't happened yet, it simply hasn't started.
func TestWaveNeverActiveStaysOpen(t *testing.T) {
	newWaveModel(t, 3).requireNotDone("on a never-active system", 200*time.Millisecond)
}
