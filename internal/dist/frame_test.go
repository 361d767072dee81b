package dist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []frame{
		{Kind: kHello, Want: wireVersion, Blob: []byte("app=x n=10")},
		{Kind: kWelcome, To: 3, Want: 5, Blob: []byte("app=x n=10")},
		{Kind: kReject, Blob: []byte("spec mismatch")},
		{Kind: kSteal, From: 2, To: 1, Seq: 77, Want: 4},
		{Kind: kStealR, From: 1, To: 2, Seq: 77, Tasks: []WireTask{
			{Payload: []byte("abc"), ID: TaskID(1, 9), Depth: 3, Prio: 12, Bound: -9},
			{Payload: []byte{}, Depth: 0, Bound: math.MinInt64},
			{Payload: []byte("zzzz"), ID: TaskID(2, 1<<40), Depth: 1 << 20, Prio: 1023, Bound: math.MaxInt64},
		}},
		{Kind: kStealR, From: 1, To: 2, Seq: 78}, // empty-handed
		{Kind: kBound, From: 4, Obj: -123456789, Blob: []byte{}},
		{Kind: kCancel, From: 1, Blob: []byte{}},
		{Kind: kTerminate},
		{Kind: kGather, From: 3, Blob: []byte{1, 2, 3}},
		{Kind: kGather, From: 3, Blob: []byte{}},
		{Kind: kBound, From: 0, Obj: math.MinInt64 + 1, Blob: []byte{}},
		// v3: best-available-priority summaries; PrioNone advertises empty.
		{Kind: kPing, From: 2, PS: 5, HasPS: true},
		{Kind: kSteal, From: 1, To: 2, Seq: 2, Want: 4, PS: PrioNone, HasPS: true},
		{Kind: kStealR, From: 2, To: 1, Seq: 2, PS: 0, HasPS: true,
			Tasks: []WireTask{{Payload: []byte("p"), ID: TaskID(0, 3), Depth: 1, Prio: 2, Bound: 4}}},
		// v4: node-carrying bounds and cancels, acks, death notices,
		// heartbeats.
		{Kind: kBound, From: 2, Obj: 40, Blob: []byte("encoded-incumbent")},
		{Kind: kCancel, From: 3, Obj: 17, Blob: []byte("encoded-witness")},
		{Kind: kAck, From: 2, To: 1, Acks: []ack{{ID: TaskID(1, 44)}}},
		{Kind: kAck, From: 1, Acks: []ack{{ID: TaskID(0, math.MaxUint32)}, {ID: TaskID(2, 1)}, {ID: TaskID(0, 7)}}},
		{Kind: kAck, From: 3, Acks: []ack{{ID: TaskID(0, 5), Val: []byte("fold")}, {ID: TaskID(1, 2), Val: []byte{}}}}, // v12
		{Kind: kAck, From: 1}, // empty batch (drained elsewhere)
		{Kind: kDeath, From: 0, Want: 3},
		{Kind: kPing, From: 2},
		{Kind: kPing, From: 1, PS: 1, HasPS: true},
		// v5: mesh registration, peer tables, direct peer hellos and
		// termination-wave tokens.
		{Kind: kPeerAddr, Blob: []byte("10.0.0.7:41231")},
		{Kind: kPeers, To: 2, Blob: appendPeerTable(nil, []string{"", "10.0.0.7:41231", "10.0.0.9:35011"})},
		{Kind: kPeerHello, From: 3, Want: wireVersion},
		{Kind: kToken, From: 1, To: 2, Seq: 9, Obj: 0, Want: 0},
		{Kind: kToken, From: 4, To: 0, Seq: 1 << 33, Obj: -17, Want: tokBlack | tokActive},
		{Kind: kToken, From: 2, To: 3, Seq: 12, Obj: 3, Want: tokActive, PS: 2, HasPS: true},
		// v7: the standby's snapshot, a rank's goodbye.
		// v13: the snapshot names the root's hand-over id beside its holder,
		// which a kHeld carries in Seq.
		{Kind: kHubSnap, Blob: encodeHubSnapshot(&HubSnapshot{Holder: 2, RootID: TaskID(0, 3), HasBest: true, BestObj: 7, BestNode: []byte("n")})},
		{Kind: kHubSnap, Blob: []byte{}},
		{Kind: kHeld, From: 2, Seq: TaskID(0, 3)},
		{Kind: kLeave, From: 3},
	}
	// v12: an ack batch without values encodes as in v11 (kind, flags, from, to, seq, count, ids).
	if b := appendFrame(nil, &frame{Kind: kAck, From: 1, Acks: []ack{{ID: 300}}}); !reflect.DeepEqual(b, []byte{byte(kAck), 0, 2, 0, 0, 1, 0xAC, 0x02}) {
		t.Fatalf("a kAck batch without values encodes as %x", b)
	}
	for i, f := range frames {
		body := appendFrame(nil, &f)
		var got frame
		if err := parseFrame(body, &got); err != nil {
			t.Fatalf("frame %d (%+v): parse: %v", i, f, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("frame %d round trip:\n got %+v\nwant %+v", i, got, f)
		}
	}
}

// Truncations and bit flips must error, never panic or over-allocate:
// frame bodies come off the network.
func TestFrameParseRobustness(t *testing.T) {
	bodies := [][]byte{
		appendFrame(nil, &frame{Kind: kStealR, From: 1, To: 2, Seq: 9, PS: 2, HasPS: true,
			Tasks: []WireTask{{Payload: []byte("payload-bytes"), ID: TaskID(1, 77), Depth: 5, Prio: 7, Bound: 40}}}),
		// A v5 body too: the peer table and token paths parse from the
		// same reader and deserve the same truncation/bit-flip sweep.
		appendFrame(nil, &frame{Kind: kPeers, To: 1,
			Blob: appendPeerTable(nil, []string{"", "h1:1", "h2:2"})}),
		appendFrame(nil, &frame{Kind: kToken, From: 2, To: 0, Seq: 41, Obj: -2, Want: tokBlack}),
	}
	rng := rand.New(rand.NewSource(42))
	for _, body := range bodies {
		for cut := 0; cut < len(body); cut++ {
			var g frame
			if err := parseFrame(body[:cut], &g); err == nil {
				t.Fatalf("parse of %d/%d-byte truncation succeeded", cut, len(body))
			}
		}
		for trial := 0; trial < 2000; trial++ {
			mut := append([]byte(nil), body...)
			for flips := 1 + rng.Intn(3); flips > 0; flips-- {
				mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			}
			var g frame
			_ = parseFrame(mut, &g) // must not panic
		}
		var g frame
		if err := parseFrame(append(append([]byte(nil), body...), 0xFF), &g); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	}
	var g frame
	if err := parseFrame([]byte{byte(kToken + 1), 0}, &g); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// The peer table codec bounds its inputs: tables come out of a
// registration frame, before the sender is trusted.
func TestPeerTableRoundTripAndRobustness(t *testing.T) {
	tables := [][]string{
		{},
		{""},
		{"", "127.0.0.1:9001"},
		{"", "10.1.2.3:1", "10.1.2.4:2", "10.1.2.5:3"},
	}
	for _, addrs := range tables {
		b := appendPeerTable(nil, addrs)
		got, err := parsePeerTable(b)
		if err != nil {
			t.Fatalf("table %v: %v", addrs, err)
		}
		if len(got) != len(addrs) {
			t.Fatalf("table %v round-tripped to %v", addrs, got)
		}
		for i := range addrs {
			if got[i] != addrs[i] {
				t.Fatalf("slot %d = %q, want %q", i, got[i], addrs[i])
			}
		}
	}
	full := appendPeerTable(nil, []string{"", "a:1", "b:2"})
	for cut := 0; cut < len(full); cut++ {
		if _, err := parsePeerTable(full[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", cut, len(full))
		}
	}
	if _, err := parsePeerTable(append(append([]byte(nil), full...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A claimed count beyond the table bound must be rejected before
	// any allocation proportional to it.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := parsePeerTable(huge); err == nil {
		t.Fatal("oversized table accepted")
	}
}

// A hub snapshot round-trips whole, and its decoder — it reads bytes off
// the network like parseFrame does — gets the same sweep: truncations
// and trailing bytes are errors, bit flips never panic, and a count no
// input could hold is refused before anything is sized by it.
func TestHubSnapshotRoundTripAndRobustness(t *testing.T) {
	snaps := []*HubSnapshot{
		{Holder: -1},
		{Holder: 1 << 20, RootID: TaskID(0, 1<<40), BestObj: -9, BestNode: []byte{}, HasBest: true},
		{Holder: 3, RootID: TaskID(0, 1), BestObj: math.MinInt64, BestNode: []byte("witness"), HasBest: true},
	}
	for i, s := range snaps {
		got, err := DecodeHubSnapshot(encodeHubSnapshot(s))
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("snapshot %d round trip:\n got %+v\nwant %+v", i, got, s)
		}
	}
	body := encodeHubSnapshot(snaps[1])
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeHubSnapshot(body[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte truncation succeeded", cut, len(body))
		}
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), body...)
		for flips := 1 + rng.Intn(3); flips > 0; flips-- {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		DecodeHubSnapshot(mut) // must not panic
	}
	if _, err := DecodeHubSnapshot(append(append([]byte(nil), body...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A huge byte-string length in the incumbent's slot, followed by bytes
	// that parse, which only the bound check keeps from being built.
	b := append([]byte{1, 0, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, make([]byte, 1000)...)
	if _, err := DecodeHubSnapshot(b); err == nil {
		t.Fatalf("snapshot claiming a huge length accepted: %x", b)
	}
	if n := testing.AllocsPerRun(10, func() { DecodeHubSnapshot(b) }); n > 8 {
		t.Fatalf("refusing a huge length took %v allocations", n)
	}
}
