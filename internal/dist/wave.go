package dist

import (
	"sync"
	"time"
)

// The termination wave detects the end of a search over TCP, where no
// single endpoint sees every live-task delta. It is a Safra-style token
// wave adapted to the engine's task-accounting discipline:
//
//   - every spawn/adopt contributes +1 and every completion/retirement
//     -1 to the LOCAL counter of the rank that performed it (AddTasks
//     never crosses the wire);
//   - the supervision ledger keeps a victim's +1 until the thief's
//     completion ack lands, so a task in flight between two ranks is
//     always covered by at least one live counter;
//   - a rank blackens itself the moment it RECEIVES tasks, before they
//     become visible in its counter, so work migrating to an
//     already-visited rank behind the token poisons the round instead
//     of slipping out of the sum.
//
// The initiator (rank 0; under WireOptions.Standby the lowest live
// rank takes over if it dies) launches a probe round whenever it is
// passive and no probe is outstanding. The token visits the live ranks
// in ring order; each passive rank adds its local counter, ORs in its
// colour, whitens itself, and forwards; an active rank holds the token
// until it drains. A round whose token returns white, summing to zero
// with the initiator's own counter, on a system that has ever held
// work, is a consistent observation of global quiescence: the search
// is over. Deaths bump the round (abandoning any token the corpse
// held) and a watchdog relaunches a probe whose token got lost with a
// dying connection; stale rounds are dropped by sequence number, so
// regeneration never double-counts.
type waveNode struct {
	rank int
	size int

	// send forwards a token to a live rank; it must not block on the
	// receiving rank's wave (the transports send over a connection or a
	// goroutine). conclude fires exactly once, on the initiator that
	// observed quiescence.
	send     func(to int, tok waveToken)
	conclude func()

	// watchdog is how long the initiator waits for an outstanding
	// probe's token before assuming it was lost and relaunching.
	watchdog time.Duration

	mu        sync.Mutex
	local     int64 // accumulated live-task delta of this rank
	black     bool  // received tasks since last token pass
	everAct   bool  // local has ever been positive (latched)
	alive     []bool
	initiator bool
	concluded bool
	seen      uint64     // highest token round accepted (non-initiator)
	held      *waveToken // token parked here while this rank is active
	round     uint64     // latest round launched (initiator)
	outAt     time.Time  // when the outstanding probe launched
	out       bool       // a probe is outstanding (initiator)
	idle      time.Time  // next launch on a never-active system (backoff)
}

// waveToken is one circulating probe. Colour bits travel in the wire
// frame's Want field (tokBlack, tokActive).
type waveToken struct {
	round  uint64
	q      int64 // sum of visited ranks' local counters
	black  bool  // some visited rank received tasks behind the token
	active bool  // some visited rank has ever held work
}

const defaultWaveWatchdog = 500 * time.Millisecond

func newWaveNode(rank, size int, send func(int, waveToken), conclude func()) *waveNode {
	alive := make([]bool, size)
	for i := range alive {
		alive[i] = true
	}
	return &waveNode{
		rank:      rank,
		size:      size,
		send:      send,
		conclude:  conclude,
		watchdog:  defaultWaveWatchdog,
		alive:     alive,
		initiator: rank == 0,
	}
}

// add folds a live-task delta into the local counter. Becoming passive
// releases a held token.
func (w *waveNode) add(delta int64) {
	w.mu.Lock()
	w.local += delta
	if w.local > 0 {
		w.everAct = true
	}
	tok, to, ok := w.releaseLocked()
	w.mu.Unlock()
	if ok {
		w.send(to, tok)
	}
}

// blacken marks this rank as having received tasks. It MUST be called
// before the received tasks are counted or handed to the engine: the
// blackness is what keeps a token that already passed this rank from
// concluding a round the migrated work escaped.
func (w *waveNode) blacken() {
	w.mu.Lock()
	w.black = true
	w.mu.Unlock()
}

// markDead removes a rank from the ring. The initiator abandons any
// outstanding probe (its token may have died with the corpse); on
// deployments that allow rank 0 to die, the lowest surviving rank
// inherits the initiator role.
func (w *waveNode) markDead(rank int) {
	w.mu.Lock()
	if rank >= 0 && rank < w.size {
		w.alive[rank] = false
	}
	lowest := -1
	for i, a := range w.alive {
		if a {
			lowest = i
			break
		}
	}
	w.initiator = w.rank == lowest
	if w.initiator {
		w.out = false // relaunch on the next tick, under a fresh round
	}
	// A token parked here can no longer assume the ring it was summing;
	// drop it and let the initiator's watchdog regenerate.
	w.held = nil
	w.mu.Unlock()
}

// onToken receives a circulating token.
func (w *waveNode) onToken(tok waveToken) {
	w.mu.Lock()
	if w.concluded {
		w.mu.Unlock()
		return
	}
	if w.initiator {
		if !w.out || tok.round != w.round {
			w.mu.Unlock()
			return // stale round from before a death or relaunch
		}
		w.out = false
		if !w.black && !tok.black && tok.q+w.local == 0 && w.local <= 0 && (tok.active || w.everAct) {
			w.concluded = true
			w.mu.Unlock()
			w.conclude()
			return
		}
		if !tok.active && !w.everAct {
			// The round failed only because nothing has ever run: the
			// system is idle-before-work, not quiescing. Back off so
			// probes don't spin a hot token loop before the search
			// starts (everAct cancels the backoff the moment it does).
			w.idle = time.Now().Add(w.watchdog)
		}
		w.mu.Unlock()
		return
	}
	if tok.round <= w.seen {
		w.mu.Unlock()
		return // duplicate or stale
	}
	w.seen = tok.round
	w.held = &tok
	fwd, to, ok := w.releaseLocked()
	w.mu.Unlock()
	if ok {
		w.send(to, fwd)
	}
}

// tick paces the wave: the owning transport calls it on its flush
// quantum. The initiator launches (or watchdog-relaunches) probes; any
// rank re-checks a held token it may now be passive enough to forward.
func (w *waveNode) tick() {
	w.mu.Lock()
	if w.concluded {
		w.mu.Unlock()
		return
	}
	if tok, to, ok := w.releaseLocked(); ok {
		w.mu.Unlock()
		w.send(to, tok)
		return
	}
	if !w.initiator || w.local > 0 {
		w.mu.Unlock()
		return
	}
	if w.out && time.Since(w.outAt) <= w.watchdog {
		w.mu.Unlock()
		return
	}
	if !w.everAct && time.Now().Before(w.idle) {
		w.mu.Unlock()
		return
	}
	// Launch a fresh probe. The initiator whitens itself: anything it
	// received before this instant will be summed by this very round.
	w.round++
	w.out = true
	w.outAt = time.Now()
	w.black = false
	tok := waveToken{round: w.round, active: w.everAct}
	to := w.nextLiveLocked()
	if to == w.rank {
		// Sole survivor: the round begins and ends here.
		w.out = false
		if !w.black && w.local == 0 && w.everAct {
			w.concluded = true
			w.mu.Unlock()
			w.conclude()
			return
		}
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	w.send(to, tok)
}

// releaseLocked forwards a held token if this rank is passive,
// accumulating its counter and colour. Caller holds w.mu and performs
// the returned send after unlocking.
func (w *waveNode) releaseLocked() (waveToken, int, bool) {
	if w.held == nil || w.local > 0 || w.initiator {
		return waveToken{}, 0, false
	}
	tok := *w.held
	w.held = nil
	tok.q += w.local
	tok.black = tok.black || w.black
	tok.active = tok.active || w.everAct
	w.black = false
	return tok, w.nextLiveLocked(), true
}

// nextLiveLocked is the ring successor among live ranks (self when
// alone). Caller holds w.mu.
func (w *waveNode) nextLiveLocked() int {
	for i := 1; i < w.size; i++ {
		r := (w.rank + i) % w.size
		if w.alive[r] {
			return r
		}
	}
	return w.rank
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

// frameToken unpacks a kToken.
func frameToken(f *frame) waveToken {
	return waveToken{round: f.Seq, q: f.Obj, black: f.Want&tokBlack != 0, active: f.Want&tokActive != 0}
}
