package dist

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// Property tests for the termination wave, driven through the loopback
// mesh (the wave's reference deployment): randomised spawn/steal/
// complete schedules, with and without injected deaths, must never
// terminate early (a lost task would strand work) and never hang (a
// lost token would strand the deployment).

// waveModel mirrors the engine's task-accounting discipline on top of
// a wave-mode loopback network. Each task carries its registration
// chain: the spawner's +1, plus one adoption +1 per hand-over (the
// engine's supervision ledger keeps every link's registration open
// until the completion ack cascades back). Completion retires every
// live link with a -1; a death drops the dead rank's registrations
// wholesale, and a task the corpse was holding replays at its most
// recent surviving link (or vanishes if none remains).
type waveModel struct {
	t     *testing.T
	net   *LoopbackNetwork
	trs   []Transport
	hs    []*recHandler
	alive []bool
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

func newWaveModel(t *testing.T, n int) *waveModel {
	net := NewLoopback(n, LoopbackOptions{Wave: true})
	t.Cleanup(func() { net.Close() })
	trs := net.Transports()
	m := &waveModel{t: t, net: net, trs: trs, hs: startAll(trs), alive: make([]bool, n)}
	for i := range m.alive {
		m.alive[i] = true
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
	m.trs[rank].AddTasks(1)
	m.hs[rank].push(WireTask{Payload: []byte{id}, Depth: 1})
	m.tasks = append(m.tasks, waveTask{id: id, regs: []int{rank}, holder: rank})
}

// steal moves a run of queued tasks from victim to thief through the
// real transport (exercising the blacken-before-visible path) — the one
// the steal returns and the extras the thief's handler was handed — then
// registers each adoption like the engine does.
func (m *waveModel) steal(thief, victim int) {
	if !m.alive[thief] || !m.alive[victim] || thief == victim {
		return
	}
	wt, ok, err := m.trs[thief].Steal(victim)
	if err != nil || !ok {
		return
	}
	h := m.hs[thief]
	h.mu.Lock()
	run := append([]WireTask{wt}, h.adopted...)
	h.adopted = nil
	h.mu.Unlock()
	m.trs[thief].AddTasks(int64(len(run))) // adoption
stolen:
	for _, wt := range run {
		h.push(wt) // the stolen task joins the thief's queue
		for i := range m.tasks {
			if m.tasks[i].id == wt.Payload[0] {
				m.tasks[i].regs = append(m.tasks[i].regs, thief)
				m.tasks[i].holder = thief
				continue stolen
			}
		}
		m.t.Fatalf("stole unknown task %d", wt.Payload[0])
	}
}

// complete finishes one task currently held (queued) at rank, if any.
func (m *waveModel) complete(rank int, rng *rand.Rand) {
	if !m.alive[rank] {
		return
	}
	held := m.hs[rank].drain()
	if len(held) == 0 {
		return
	}
	// Complete one, requeue the rest.
	pick := rng.Intn(len(held))
	for i, wt := range held {
		if i != pick {
			m.hs[rank].push(wt)
		}
	}
	m.finish(held[pick])
}

func (m *waveModel) finish(wt WireTask) {
	for i := range m.tasks {
		tk := &m.tasks[i]
		if tk.id != wt.Payload[0] || tk.done {
			continue
		}
		tk.done = true
		// The completion ack cascades down the supervision chain: every
		// surviving link retires its registration.
		for _, r := range tk.regs {
			if m.alive[r] {
				m.trs[r].AddTasks(-1)
			}
		}
		return
	}
	m.t.Fatalf("completed unknown or already-done task %d", wt.Payload[0])
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
	m.trs[rank].Close()
	for r, peer := range m.net.trs {
		if m.alive[r] {
			peer.wave.markDead(rank)
		}
	}
	for i := range m.tasks {
		tk := &m.tasks[i]
		if tk.done {
			continue
		}
		live := tk.regs[:0]
		for _, r := range tk.regs {
			if r != rank {
				live = append(live, r)
			}
		}
		tk.regs = live
		if tk.holder != rank {
			continue
		}
		if len(tk.regs) == 0 {
			tk.done = true // every registration died with the chain
			continue
		}
		tk.holder = tk.regs[len(tk.regs)-1]
		m.hs[tk.holder].push(WireTask{Payload: []byte{tk.id}, Depth: 1})
	}
}

func (m *waveModel) requireNotDone(what string) {
	m.t.Helper()
	select {
	case <-m.net.done:
		m.t.Fatalf("wave terminated early %s: model still holds %d live tasks", what, m.liveCount())
	default:
	}
}

// drainAll completes every outstanding task and then requires the wave
// to conclude promptly on every surviving rank.
func (m *waveModel) drainAll(rng *rand.Rand) {
	for guard := 0; m.liveCount() > 0; guard++ {
		if guard > 10_000 {
			m.t.Fatalf("model failed to drain: %d tasks stuck", m.liveCount())
		}
		for r := range m.trs {
			if m.alive[r] {
				m.complete(r, rng)
			}
		}
	}
	deadline := time.After(5 * time.Second)
	for r := range m.trs {
		if !m.alive[r] {
			continue
		}
		select {
		case <-m.trs[r].Done():
		case <-deadline:
			m.t.Fatalf("rank %d never saw wave termination after the drain (lost token?)", r)
		}
	}
}

// TestWavePropertyRandomSchedules runs randomised schedules on several
// deployment sizes: interleaved spawns, real steals, completions, and
// (on odd seeds) worker deaths. After every step the model knows the
// exact live-task count, so any early conclusion is caught; the final
// drain bounds detection latency.
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
						m.spawn(rng.Intn(size))
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
					if step%15 == 0 && m.liveCount() > 0 {
						m.requireNotDone(fmt.Sprintf("at step %d", step))
					}
				}
				if m.liveCount() > 0 {
					m.requireNotDone("after the schedule")
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
	time.Sleep(50 * time.Millisecond)
	m.requireNotDone("after the initiator died")
	m.drainAll(rng)
}

// TestWaveNeverActiveStaysOpen pins the ever-active guard: a
// deployment where nothing is ever spawned must not conclude — an
// empty search hasn't happened yet, it simply hasn't started.
func TestWaveNeverActiveStaysOpen(t *testing.T) {
	net := NewLoopback(3, LoopbackOptions{Wave: true})
	t.Cleanup(func() { net.Close() })
	startAll(net.Transports())
	select {
	case <-net.done:
		t.Fatal("wave concluded on a never-active system")
	case <-time.After(200 * time.Millisecond):
	}
}
