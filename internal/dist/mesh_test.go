package dist

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// The mesh's own transport behaviour, beyond the shared conformance
// suite: steal traffic bypasses the coordinator entirely.

// Direct-steal conservation: a worker draining another worker moves
// every task exactly once, and none of the steal traffic crosses the
// coordinator — the point of direct links. The coordinator's frame
// counters must stay flat (heartbeats aside) while dozens of exchanges
// run.
func TestMeshDirectStealConservation(t *testing.T) {
	trs := makeTCP(t, 3, WireOptions{})
	hs := startAll(trs)
	const total = 64
	for i := 0; i < total; i++ {
		hs[1].push(WireTask{Payload: []byte{byte(i)}, Depth: i, Prio: i % 7})
	}
	before := trs[0].Wire()

	seen := make(map[byte]int)
	record := func(ts ...WireTask) {
		for _, wt := range ts {
			seen[wt.Payload[0]]++
		}
	}
	exchanges := 0
	for {
		wt, ok, err := trs[2].Steal(1)
		if err != nil {
			t.Fatalf("direct steal: %v", err)
		}
		exchanges++
		if !ok {
			break
		}
		record(wt)
		record(hs[2].drain()...)
	}
	record(hs[1].drain()...) // anything the victim kept

	if len(seen) != total {
		t.Fatalf("saw %d distinct tasks, want %d", len(seen), total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %d seen %d times (lost or duplicated)", id, n)
		}
	}

	after := trs[0].Wire()
	hubFrames := (after.FramesSent + after.FramesRecv) - (before.FramesSent + before.FramesRecv)
	// A coordinator on the steal path would see 4 frames per exchange
	// (request in, request out, reply in, reply out). Allow a little
	// heartbeat and wave noise, but the steal traffic itself must be
	// absent.
	if hubFrames >= int64(2*exchanges) {
		t.Fatalf("coordinator saw %d frames across %d direct exchanges; steal traffic is crossing the hub", hubFrames, exchanges)
	}
}

// The coordinator's residual state round-trips through its snapshot: the
// rank holding its supervised hand-over, the hand-over's id, and the
// retained incumbent — what
// a standby needs beyond what registration and the kDeath fan-out told
// it.
func TestMeshHubSnapshotRoundTrip(t *testing.T) {
	trs := makeTCP(t, 4, WireOptions{Standby: true})
	hs := startAll(trs)
	hs[0].push(WireTask{Payload: []byte("root"), ID: TaskID(0, 1)})
	if _, ok, err := trs[1].Steal(0); !ok || err != nil {
		t.Fatalf("rank 1 did not get rank 0's task (%v)", err)
	}
	trs[1].BroadcastBound(42, []byte("best-node"))
	eventually(t, "the coordinator to retain the incumbent", func() bool {
		obj, _, ok := trs[0].BestKnown()
		return ok && obj == 42
	})
	snap, err := DecodeHubSnapshot(trs[0].(*endpoint).snapshotBlob())
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if snap.Holder != 1 || snap.RootID != TaskID(0, 1) {
		t.Fatalf("snapshot holder = %d under %#x, want rank 1 under %#x", snap.Holder, snap.RootID, TaskID(0, 1))
	}
	if !snap.HasBest || snap.BestObj != 42 || string(snap.BestNode) != "best-node" {
		t.Fatalf("snapshot incumbent = %d %q %v", snap.BestObj, snap.BestNode, snap.HasBest)
	}
}

// rawSend writes one v8-framed frame over a bare connection, bypassing
// wconn: registration-rejection tests need to speak broken protocol on
// purpose (while still passing the CRC gate). The link sequence is 0 so
// the receiver treats each frame as out-of-band.
func rawSend(t *testing.T, c net.Conn, f *frame) {
	t.Helper()
	if _, err := c.Write(encodeFrame(nil, f, 0)); err != nil {
		t.Fatalf("raw send: %v", err)
	}
}

func rawRecv(t *testing.T, c net.Conn) *frame {
	t.Helper()
	var f frame
	if _, _, err := readRawFrame(bufio.NewReader(c), &f); err != nil {
		t.Fatalf("raw recv: %v", err)
	}
	return &f
}

// A worker speaking an older wire version — v4, or v9, whose snapshot
// carried a liveness list, nil gather slots and a hand-over mirror — is
// rejected by name: the version gate is what lets the wire protocol evolve
// without silent cross-version corruption. The deployment still completes
// once a well-versioned worker arrives.
func TestMeshRegistrationRejectsOldWireVersion(t *testing.T) {
	for _, old := range []int{4, wireVersion - 1} {
		rejectsWireVersion(t, old)
	}
}

func rejectsWireVersion(t *testing.T, old int) {
	opts := WireOptions{}
	l, err := NewListenerOpts("127.0.0.1:0", "conformance", opts)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	type waitRes struct {
		tr  Transport
		err error
	}
	waitCh := make(chan waitRes, 1)
	go func() {
		tr, err := l.Wait(1)
		waitCh <- waitRes{tr, err}
	}()

	c, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rawSend(t, c, &frame{Kind: kHello, Want: old, Blob: []byte(optSpec("conformance", opts))})
	reject := rawRecv(t, c)
	if reject.Kind != kReject {
		t.Fatalf("old-version hello answered with kind %d, want kReject", reject.Kind)
	}
	if msg := string(reject.Blob); !strings.Contains(msg, "wire protocol mismatch") ||
		!strings.Contains(msg, fmt.Sprintf("v%d", wireVersion)) || !strings.Contains(msg, fmt.Sprintf("worker v%d", old)) {
		t.Fatalf("rejection %q does not name both versions", msg)
	}

	// The listener is still accepting: a current-version worker
	// registers and the deployment comes up.
	go func() {
		tr, err := DialOpts(l.Addr(), "conformance", opts)
		if err == nil {
			t.Cleanup(func() { tr.Close() })
		}
	}()
	res := <-waitCh
	if res.err != nil {
		t.Fatalf("wait after rejected candidate: %v", res.err)
	}
	t.Cleanup(func() { res.tr.Close() })
}

// Registration demands a peer address after the hello: a worker
// that never advertises one cannot be dialed by its peers and must be
// turned away during registration, not discovered broken later.
func TestMeshRegistrationRequiresPeerAddr(t *testing.T) {
	opts := WireOptions{RegTimeout: 2 * time.Second}
	l, err := NewListenerOpts("127.0.0.1:0", "conformance", opts)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	waitErr := make(chan error, 1)
	go func() {
		tr, err := l.Wait(1)
		if err == nil {
			tr.Close()
		}
		waitErr <- err
	}()

	c, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rawSend(t, c, &frame{Kind: kHello, Want: wireVersion, Blob: []byte(optSpec("conformance", opts))})
	rawSend(t, c, &frame{Kind: kPing}) // anything but kPeerAddr
	reject := rawRecv(t, c)
	if reject.Kind != kReject || !strings.Contains(string(reject.Blob), "peer address") {
		t.Fatalf("peer-addr-less registration answered with %d %q, want a kReject naming the peer address", reject.Kind, reject.Blob)
	}
	// No other worker arrives: registration times out rather than
	// accepting the broken candidate.
	if err := <-waitErr; err == nil {
		t.Fatal("Wait succeeded without any valid worker")
	}
}

// A standby deployment and a worker without Standby must not
// interconnect: the option is folded into the spec either side checks at
// registration.
func TestStandbySpecMismatchRejected(t *testing.T) {
	l, err := NewListenerOpts("127.0.0.1:0", "conformance", WireOptions{Standby: true, RegTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	go func() {
		tr, err := l.Wait(1)
		if err == nil {
			tr.Close()
		}
	}()
	_, err = DialOpts(l.Addr(), "conformance", WireOptions{})
	if err == nil || !strings.Contains(err.Error(), "spec mismatch") {
		t.Fatalf("a worker without Standby joined a standby coordinator: %v", err)
	}
}
