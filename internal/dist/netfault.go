package dist

import (
	"math/rand"
	"sync"
	"time"
)

// Deterministic network fault injection, netem-style. A FaultPlan is a
// transport wrapper: the loopback network and the TCP framing layer
// consult it around every frame they move, so conformance and chaos
// suites can drive latency, loss, duplication, corruption, reordering,
// and scheduled partitions reproducibly from a seed — no root, no tc,
// no real packet loss. It composes with ChaosPlan (process kills):
// ChaosPlan schedules *who dies*, FaultPlan *which links lie*.
//
// The plan is also the one way to give a link latency, on either
// transport (LatencyPlan; -link-latency). The loopback network's links
// are direct calls, so there only delay and partitions apply.
//
// Faults are injected on the sending side, after the clean frame has
// been captured by the session's retransmit log. With LinkGrace > 0
// every injected fault is therefore recoverable — a drop or corrupt
// frame costs one resume round trip — while with grace 0 the injector
// reproduces exactly what a real flaky network does to a crash-stop
// deployment: escalation to the death path.

// LinkFault describes the noise on one (or the default) link.
type LinkFault struct {
	Latency time.Duration // fixed per-frame delay
	Jitter  time.Duration // uniform extra delay in [0, Jitter)
	Drop    float64       // probability a frame is silently swallowed
	Dup     float64       // probability a frame is sent twice
	Corrupt float64       // probability a frame is bit-flipped in transit
	Reorder float64       // probability a frame is held behind its successor
}

// faultAction is one frame's rolled outcome.
type faultAction struct {
	delay   time.Duration
	drop    bool
	dup     bool
	corrupt bool
	reorder bool
}

// FaultPlan is a seeded, shared schedule of link faults for an
// in-process deployment. All methods are safe for concurrent use.
type FaultPlan struct {
	mu     sync.Mutex
	rng    *rand.Rand
	def    LinkFault
	links  map[[2]int]LinkFault
	part   map[int]bool // the active partition: severed iff sides differ
	onHeal []func()
}

// NewFaultPlan builds an empty plan; the seed fixes every later roll.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{rng: rand.New(rand.NewSource(seed))}
}

// LatencyPlan returns a plan whose every link has the given latency and
// no other fault: what an experiment that wants a slower network hands
// to core.Config.NetFault or LoopbackOptions.Fault.
func LatencyPlan(lat time.Duration) *FaultPlan {
	p := NewFaultPlan(1)
	p.def.Latency = lat
	return p
}

// SetDefault applies f to every link without a specific override.
func (p *FaultPlan) SetDefault(f LinkFault) {
	p.mu.Lock()
	p.def = f
	p.mu.Unlock()
}

// SetLink applies f to the a↔b link (both directions).
func (p *FaultPlan) SetLink(a, b int, f LinkFault) {
	p.mu.Lock()
	if p.links == nil {
		p.links = make(map[[2]int]LinkFault)
	}
	p.links[[2]int{a, b}] = f
	p.mu.Unlock()
}

// Partition severs every link between ranks and the rest of the
// deployment. A positive duration schedules the Heal; zero leaves the
// partition in place until an explicit Heal. A new partition replaces
// the previous one.
func (p *FaultPlan) Partition(ranks []int, d time.Duration) {
	p.mu.Lock()
	p.part = make(map[int]bool, len(ranks))
	for _, r := range ranks {
		p.part[r] = true
	}
	p.mu.Unlock()
	if d > 0 {
		time.AfterFunc(d, p.Heal)
	}
}

// Heal removes the active partition and runs every queued heal
// callback (loopback deliveries deferred across the split).
func (p *FaultPlan) Heal() {
	p.mu.Lock()
	p.part = nil
	cbs := p.onHeal
	p.onHeal = nil
	p.mu.Unlock()
	for _, fn := range cbs {
		fn()
	}
}

// Severed reports whether the a↔b link is cut by the active partition.
func (p *FaultPlan) Severed(a, b int) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.part != nil && p.part[a] != p.part[b]
}

// OnHeal queues fn for the next Heal — or runs it now when no
// partition is active.
func (p *FaultPlan) OnHeal(fn func()) {
	p.mu.Lock()
	if p.part == nil {
		p.mu.Unlock()
		fn()
		return
	}
	p.onHeal = append(p.onHeal, fn)
	p.mu.Unlock()
}

// act rolls one frame's fate on the a→b link; true means severed.
func (p *FaultPlan) act(a, b int) (faultAction, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.part != nil && p.part[a] != p.part[b] {
		return faultAction{}, true
	}
	lf, ok := p.links[[2]int{a, b}]
	if !ok {
		lf, ok = p.links[[2]int{b, a}]
	}
	if !ok {
		lf = p.def
	}
	var act faultAction
	act.delay = lf.Latency
	if lf.Jitter > 0 {
		act.delay += time.Duration(p.rng.Int63n(int64(lf.Jitter)))
	}
	act.drop = lf.Drop > 0 && p.rng.Float64() < lf.Drop
	act.dup = lf.Dup > 0 && p.rng.Float64() < lf.Dup
	act.corrupt = lf.Corrupt > 0 && p.rng.Float64() < lf.Corrupt
	act.reorder = lf.Reorder > 0 && p.rng.Float64() < lf.Reorder
	return act, false
}
