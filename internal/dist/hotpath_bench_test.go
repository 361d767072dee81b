package dist

import (
	"net"
	"runtime"
	"testing"
)

// Steady-state allocation census of the wire hot path: header-only
// frames — deltas, acks, the flush-quantum traffic — must move through
// encodeFrame's reused scratch and readRawFrameInto's recycled read
// image without per-frame heap allocation, and a whole steal round trip
// — request, serve, reply, receive, adopt, completion ack — must leave
// nothing behind either. BenchmarkGateHotPathWireAllocs holds both (the
// limits tolerate incidental runtime allocation; the measured numbers
// sit at zero).

// benchWirePair returns two wconns joined by a real TCP loopback
// connection.
func benchWirePair(b testing.TB) (snd, rcv *wconn, cleanup func()) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		b.Fatal(err)
	}
	ac := <-ch
	ln.Close()
	if ac.err != nil {
		cc.Close()
		b.Fatal(ac.err)
	}
	snd = newWconn(cc, nil)
	rcv = newWconn(ac.c, nil)
	return snd, rcv, func() {
		cc.Close()
		ac.c.Close()
	}
}

// drainFrames receives exactly n frames on cn, reporting the first
// error on the returned channel (nil on success).
func drainFrames(cn *wconn, n int) chan error {
	done := make(chan error, 1)
	go func() {
		var f frame
		for i := 0; i < n; i++ {
			if err := cn.recv(&f); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return done
}

// allocsPerOp is the heap allocations of the whole process, every
// goroutine's, per call of op over n calls. Allocation counts do not
// move with host speed, so one reading decides and no slack applies.
func allocsPerOp(n int, op func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// BenchmarkGateHotPathWireAllocs/send-recv: 20,000 header-only kPing
// frames through send and recv, both endpoints counted (same process,
// same heap): at most 1 allocation a frame.
//
// BenchmarkGateHotPathWireAllocs/steal-roundtrip: 20,000 steals between
// the two endpoints of a TCP deployment (reuseHandler the engine at both), at
// the default batch (DefaultStealBatch tasks), each handed over under a
// ledger id, checked and acked complete (the acks leave coalesced on the
// flush tick, inside the measurement): at most 2 allocations a round
// trip, both endpoints and their pacing loops included.
func BenchmarkGateHotPathWireAllocs(b *testing.B) {
	const ops = 20_000
	hold := func(b *testing.B, limit, got float64) {
		b.Helper()
		b.ReportMetric(got, "wire-allocs/op")
		if got > limit {
			b.Fatalf("%.4f allocations per op, want at most %g", got, limit)
		}
	}
	b.Run("send-recv", func(b *testing.B) {
		snd, rcv, cleanup := benchWirePair(b)
		defer cleanup()
		done := drainFrames(rcv, ops)
		got := allocsPerOp(ops, func() {
			if err := snd.send(&frame{Kind: kPing, From: 1}); err != nil {
				b.Fatal(err)
			}
		})
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		hold(b, 1, got)
	})
	b.Run("steal-roundtrip", func(b *testing.B) {
		trs := makeTCP(b, 2, WireOptions{})
		victim := &reuseHandler{tr: trs[0], ledger: make(map[uint64]struct{})}
		thief := &reuseHandler{tr: trs[1]}
		trs[0].Start(victim)
		trs[1].Start(thief)
		steal := func() {
			if wt, ok, err := trs[1].Steal(0); err != nil || !ok || wt.Local == nil {
				b.Fatalf("steal: task=%+v ok=%v err=%v", wt, ok, err)
			}
		}
		for i := 0; i < 64; i++ {
			steal() // the scratch every layer recycles reaches its size
		}
		got := allocsPerOp(ops, steal)
		if n := thief.bad.Load(); n != 0 {
			b.Fatalf("%d adopted payloads did not open under their id", n)
		}
		ws := trs[1].Wire()
		if got, want := ws.StealTasks, int64(DefaultStealBatch)*ws.StealReplies; got != want {
			b.Fatalf("%d tasks in %d replies, want batches of %d", got, ws.StealReplies, DefaultStealBatch)
		}
		hold(b, 2, got)
	})
}
