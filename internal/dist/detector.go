package dist

import "sync/atomic"

// detector decides when the global live-task count has returned to
// zero. Besides routing it is the one real difference between the
// topologies, so the endpoint talks to it only through this interface:
// the star counts (liveCount: every delta travels, coalesced, to the
// coordinator, which sums them), the mesh circulates a token
// (waveNode, wave.go: no delta ever leaves its rank). Either way the
// detector at the rank holding the coordinator role is the one that
// concludes, and its conclusion is endpoint.terminate.
type detector interface {
	// add folds a Transport.AddTasks delta of this rank.
	add(delta int64)
	// onFrame consumes the termination traffic an incoming frame
	// carries: a coalesced header delta or a rejoin report for the
	// count, a kToken for the wave.
	onFrame(f *frame)
	// blacken is called when tasks arrive from a peer, BEFORE they
	// become visible to the engine or to add.
	blacken()
	// markDead voids a dead rank's outstanding contribution.
	markDead(rank int)
	// tick paces the detector on the endpoint's flush quantum.
	tick()
}

// waveDetector adapts the termination wave to the frames it rides on.
type waveDetector struct{ *waveNode }

func (w waveDetector) onFrame(f *frame) {
	if f.Kind == kToken {
		w.onToken(waveToken{round: f.Seq, q: f.Obj, black: f.Want&tokBlack != 0, active: f.Want&tokActive != 0})
	}
}

// tokenFrame packs a wave token for the wire; the colour bits travel
// in Want.
func tokenFrame(from, to int, tok waveToken) *frame {
	bits := 0
	if tok.black {
		bits |= tokBlack
	}
	if tok.active {
		bits |= tokActive
	}
	return &frame{Kind: kToken, From: from, To: to, Seq: tok.round, Obj: tok.q, Want: bits}
}

// liveCount is the counted detector. The rank that owns the count —
// the coordinator role's holder — keeps the global live-task count
// split by contributing rank; every other rank only accumulates its
// deltas in pending, which the link towards the coordinator drains
// into the header of whatever frame leaves next (wconn.pending) and
// tick flushes as an explicit kDelta when nothing else did.
type liveCount struct {
	self int
	// send puts a frame on the link towards the coordinator.
	send func(*frame) error
	// zero fires when the owned count returns to zero.
	zero func()

	owner atomic.Bool
	// pending is the coalesced delta not yet on a wire. cum accumulates
	// every delta that did reach one (standby deployments only, see
	// wconn.cum): cum + pending is this rank's exact cumulative
	// contribution at any instant — the number a kRejoin reports so a
	// promoted coordinator can rebuild the count.
	pending atomic.Int64
	cum     atomic.Int64

	// live is the global count; liveAt[rank] is each rank's
	// contribution to it. The split is the heart of death
	// reconciliation: a dead rank's outstanding contribution — the
	// tasks it registered and can never complete — is subtracted in one
	// move, while tasks survivors registered (including the ledger
	// copies covering everything handed to the dead rank) stay counted
	// until the survivors themselves finish or replay them.
	live   atomic.Int64
	liveAt []atomic.Int64
}

func newLiveCount(self, size int, send func(*frame) error, zero func()) *liveCount {
	c := &liveCount{self: self, send: send, zero: zero, liveAt: make([]atomic.Int64, size)}
	c.owner.Store(self == 0)
	return c
}

func (c *liveCount) add(delta int64) {
	if c.owner.Load() {
		c.addAt(c.self, delta)
		return
	}
	c.pending.Add(delta)
	if c.owner.Load() {
		// The count moved here (a takeover) while this delta was being
		// coalesced; whichever of own and this call swaps it out folds
		// it, exactly once.
		c.addAt(c.self, c.pending.Swap(0))
	}
}

// addAt folds a delta into the global count, attributed to rank.
func (c *liveCount) addAt(rank int, delta int64) {
	if delta == 0 {
		return
	}
	if rank < 0 || rank >= len(c.liveAt) {
		rank = 0
	}
	c.liveAt[rank].Add(delta)
	if c.live.Add(delta) == 0 && delta < 0 {
		c.zero()
	}
}

func (c *liveCount) onFrame(f *frame) {
	// The delta hits the count — attributed to its sender, so a death
	// can reconcile it — before anything else in the frame is acted on
	// or relayed, and is cleared so a relay does not forward it. A
	// kRejoin's report lands with it, as one never-negative contribution:
	// the delta alone, a finish since the report was settled, could take
	// the held count to a zero the report would undo.
	d := f.Delta
	if f.Kind == kRejoin {
		d += f.Obj
	}
	c.addAt(f.From, d)
	f.Delta = 0
}

func (c *liveCount) blacken() {}

func (c *liveCount) markDead(rank int) {
	if rank < 0 || rank >= len(c.liveAt) {
		return
	}
	if removed := c.liveAt[rank].Swap(0); removed != 0 {
		if c.live.Add(-removed) == 0 && removed > 0 {
			c.zero()
		}
	}
}

// tick flushes the coalesced delta when no outgoing frame carried it
// first. The link drains it, under its write lock and with the frame's
// fate, as it does for any frame: a takeover settles this rank's
// contribution under the same lock, so it finds the delta pending or on
// a wire, never in a flush still in flight. (A frame that drained it
// first leaves the kDelta empty, and the link drops it.)
func (c *liveCount) tick() {
	if !c.owner.Load() && c.pending.Load() != 0 {
		c.send(&frame{Kind: kDelta, From: c.self})
	}
}

// settle freezes this rank's cumulative contribution for a kRejoin.
// The caller holds the dead coordinator link's write lock, so no send
// is mid-flight and the sum is exact.
func (c *liveCount) settle() int64 {
	rep := c.cum.Load() + c.pending.Swap(0)
	c.cum.Store(rep)
	return rep
}

// own moves the global count to this rank (it took the coordinator
// role over), seeded with its own contribution rep. The count is held
// one above its true value until release: survivors re-install their
// contributions one kRejoin at a time, and a partial sum crossing zero
// is not termination.
func (c *liveCount) own(rep int64) {
	c.live.Add(1)
	c.owner.Store(true)
	c.addAt(c.self, rep+c.pending.Swap(0))
}

// release drops own's hold; if the surviving contributions already sum
// to zero, the search ended while the coordinator was away.
func (c *liveCount) release() {
	if c.live.Add(-1) == 0 {
		c.zero()
	}
}
