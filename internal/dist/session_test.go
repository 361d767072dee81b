package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The v8 wire framing: body + link sequence + CRC32C, covered by the
// length prefix. Every frame kind must cross it intact, carrying its
// sequence number.
func TestEncodeFrameRoundTrip(t *testing.T) {
	frames := []frame{
		{Kind: kHello, Want: wireVersion, Blob: []byte("app=x n=10")},
		{Kind: kSteal, From: 2, To: 1, Seq: 77, Want: 4},
		{Kind: kStealR, From: 1, To: 2, Seq: 77, Tasks: []WireTask{
			{Payload: []byte("abc"), ID: TaskID(1, 9), Depth: 3, Prio: 12, Bound: -9},
		}},
		{Kind: kBound, From: 4, Obj: -123456789, Blob: []byte{}},
		{Kind: kPing, From: 2},
		{Kind: kAck, From: 1, Acks: []ack{{ID: TaskID(0, math.MaxUint32), Val: []byte{}}, {ID: TaskID(2, 1), Val: []byte{7}}}},
		// v8: the resume handshake itself (session id in Seq, receive
		// high-water mark in Obj) always travels with link sequence 0.
		{Kind: kResume, From: 3, Seq: 1<<60 | 42, Obj: 917},
		{Kind: kReject, Seq: 1<<60 | 42, Blob: []byte("unknown or expired session")},
	}
	for i, f := range frames {
		for _, seq := range []uint32{0, 1, 99, math.MaxUint32} {
			buf := encodeFrame(nil, &f, seq)
			var got frame
			gotSeq, n, err := readRawFrame(bufio.NewReader(bytes.NewReader(buf)), &got)
			if err != nil {
				t.Fatalf("frame %d seq %d: read: %v", i, seq, err)
			}
			if gotSeq != seq {
				t.Fatalf("frame %d: link seq %d round-tripped to %d", i, seq, gotSeq)
			}
			if n != len(buf) {
				t.Fatalf("frame %d: wire size %d, want %d", i, n, len(buf))
			}
			if !reflect.DeepEqual(got, f) {
				t.Fatalf("frame %d round trip:\n got %+v\nwant %+v", i, got, f)
			}
		}
	}
}

// Any single bit flip anywhere in the frame — length prefix, body,
// sequence word, or the CRC itself — must fail the read. That is the
// whole point of the trailer: a lying stream becomes a link failure,
// never a silently wrong frame.
func TestReadRawFrameCorruption(t *testing.T) {
	f := frame{Kind: kStealR, From: 1, To: 2, Seq: 9, PS: 11, HasPS: true,
		Tasks: []WireTask{{Payload: []byte("payload-bytes"), ID: TaskID(1, 77), Depth: 5, Prio: 7, Bound: 40}}}
	clean := encodeFrame(nil, &f, 31)
	for pos := 0; pos < len(clean); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), clean...)
			mut[pos] ^= 1 << bit
			var g frame
			seq, _, err := readRawFrame(bufio.NewReader(bytes.NewReader(mut)), &g)
			if err == nil && seq == 31 && reflect.DeepEqual(g, f) {
				t.Fatalf("bit flip at byte %d bit %d went undetected", pos, bit)
			}
		}
	}
}

// Every strict prefix of a valid encoding must error (EOF family or a
// CRC/length complaint), never block the caller into a wrong frame.
func TestReadRawFrameTruncated(t *testing.T) {
	clean := encodeFrame(nil, &frame{Kind: kBound, From: 2, To: 1, Obj: 456, Blob: []byte("node")}, 7)
	for cut := 0; cut < len(clean); cut++ {
		var g frame
		if _, _, err := readRawFrame(bufio.NewReader(bytes.NewReader(clean[:cut])), &g); err == nil {
			t.Fatalf("read of %d/%d-byte truncation succeeded", cut, len(clean))
		}
	}
	// A frame shorter than its own trailer is structurally impossible.
	short := binary.LittleEndian.AppendUint32(nil, 4)
	short = append(short, 0, 0, 0, 0)
	var g frame
	if _, _, err := readRawFrame(bufio.NewReader(bytes.NewReader(short)), &g); err == nil {
		t.Fatal("sub-trailer frame accepted")
	}
	// A length prefix past the body bound must be rejected before any
	// allocation proportional to it.
	huge := binary.LittleEndian.AppendUint32(nil, uint32(maxFrameBody+9))
	if _, _, err := readRawFrame(bufio.NewReader(bytes.NewReader(huge)), &g); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// readRawFrame consumes untrusted network bytes: whatever arrives, it
// must return an error or a CRC-verified frame, never panic.
func FuzzReadRawFrame(f *testing.F) {
	f.Add(encodeFrame(nil, &frame{Kind: kPing, From: 2}, 1))
	f.Add(encodeFrame(nil, &frame{Kind: kResume, From: 1, Seq: 99, Obj: 3}, 0))
	f.Add(encodeFrame(nil, &frame{Kind: kStealR, From: 1, To: 2, Seq: 5,
		Tasks: []WireTask{{Payload: []byte("p"), ID: TaskID(0, 3), Depth: 1, Bound: 4}}}, 12))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr frame
		_, _, _ = readRawFrame(bufio.NewReader(bytes.NewReader(data)), &fr)
	})
}

// The retransmit log replays exactly the frames the peer missed, and
// refuses to resume once trimming has eaten an unacknowledged frame.
func TestSessionReplay(t *testing.T) {
	s := newSession(1, time.Second)
	for seq := uint64(1); seq <= 5; seq++ {
		s.appendLog(seq, encodeFrame(nil, &frame{Kind: kPing, From: 1}, uint32(seq)))
	}
	var buf bytes.Buffer
	if err := s.replayAfter(&buf, 2, 5); err != nil {
		t.Fatalf("replay: %v", err)
	}
	br := bufio.NewReader(&buf)
	var seqs []uint32
	for {
		var fr frame
		seq, _, err := readRawFrame(br, &fr)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reading replayed stream: %v", err)
		}
		seqs = append(seqs, seq)
	}
	if want := []uint32{3, 4, 5}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("replayed sequences %v, want %v", seqs, want)
	}

	s.trimThrough(4)
	if err := s.replayAfter(io.Discard, 4, 5); err != nil {
		t.Fatalf("replay after confirmed trim: %v", err)
	}
	if err := s.replayAfter(io.Discard, 2, 5); err == nil {
		t.Fatal("replay past the trimmed log succeeded")
	} else if !strings.Contains(err.Error(), "trimmed") {
		t.Fatalf("unexpected trim error: %v", err)
	}
	// Nothing outstanding: an empty (or trimmed) log is fine.
	s.trimThrough(5)
	if err := s.replayAfter(io.Discard, 5, 5); err != nil {
		t.Fatalf("replay with nothing outstanding: %v", err)
	}
}

// The log budget bounds memory by dropping oldest-first, never the
// entry just appended.
func TestSessionLogBudget(t *testing.T) {
	s := newSession(1, time.Second)
	chunk := make([]byte, sessLogBudget/3)
	for seq := uint64(1); seq <= 6; seq++ {
		s.appendLog(seq, chunk)
	}
	s.mu.Lock()
	first, n, bytes := s.log[0].seq, len(s.log), s.logBytes
	s.mu.Unlock()
	if bytes > sessLogBudget {
		t.Fatalf("log holds %d bytes, budget %d", bytes, sessLogBudget)
	}
	if first == 1 {
		t.Fatal("budget overflow did not trim the oldest entry")
	}
	if last := first + uint64(n) - 1; last != 6 {
		t.Fatalf("newest retained entry is %d, want 6", last)
	}
}

// A suspended session breaks when its grace timer fires, and the break
// releases a parked accepting-side reader.
func TestSessionGraceExpiry(t *testing.T) {
	cn := &wconn{sess: newSession(7, 50*time.Millisecond)}
	nio := newConnIO(nopConn{})
	cn.cur.Store(nio)
	done := make(chan bool, 1)
	go func() { done <- cn.await(nio) }()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("await reported a live session with no resume")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("await never released after grace expiry")
	}
	if !cn.sess.isBroken() {
		t.Fatal("session still unbroken after grace expiry")
	}
}

// nopConn satisfies net.Conn for wconn plumbing that never touches the
// wire in a test.
type nopConn struct{}

func (nopConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (nopConn) Write(b []byte) (int, error)      { return len(b), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nopAddr{} }
func (nopConn) RemoteAddr() net.Addr             { return nopAddr{} }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

type nopAddr struct{}

func (nopAddr) Network() string { return "nop" }
func (nopAddr) String() string  { return "nop" }

// Partition severing is symmetric, nil-safe, and scoped to links that
// cross the cut.
func TestFaultPlanPartition(t *testing.T) {
	var nilPlan *FaultPlan
	if nilPlan.Severed(0, 1) {
		t.Fatal("nil plan severed a link")
	}
	p := NewFaultPlan(1)
	if p.Severed(0, 2) {
		t.Fatal("empty plan severed a link")
	}
	p.Partition([]int{2}, 0)
	for _, c := range []struct {
		a, b int
		cut  bool
	}{{0, 2, true}, {2, 0, true}, {1, 2, true}, {0, 1, false}, {2, 2, false}} {
		if got := p.Severed(c.a, c.b); got != c.cut {
			t.Fatalf("Severed(%d,%d) = %v, want %v", c.a, c.b, got, c.cut)
		}
	}
	// act reports the severed state too — the TCP write path keys off it.
	if _, severed := p.act(0, 2); !severed {
		t.Fatal("act did not observe the partition")
	}
	p.Heal()
	if p.Severed(0, 2) {
		t.Fatal("link still severed after heal")
	}
}

// A positive partition duration schedules its own heal.
func TestFaultPlanPartitionAutoHeal(t *testing.T) {
	p := NewFaultPlan(1)
	p.Partition([]int{1}, 30*time.Millisecond)
	if !p.Severed(0, 1) {
		t.Fatal("partition not in force")
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Severed(0, 1) {
		if time.Now().After(deadline) {
			t.Fatal("scheduled heal never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// OnHeal runs immediately with no partition active, and queues across
// one — every queued callback fires exactly once at the heal.
func TestFaultPlanOnHeal(t *testing.T) {
	p := NewFaultPlan(1)
	var ran atomic.Int32
	p.OnHeal(func() { ran.Add(1) })
	if ran.Load() != 1 {
		t.Fatal("OnHeal with no partition did not run inline")
	}
	p.Partition([]int{1}, 0)
	p.OnHeal(func() { ran.Add(1) })
	p.OnHeal(func() { ran.Add(1) })
	if ran.Load() != 1 {
		t.Fatal("OnHeal ran during the partition")
	}
	p.Heal()
	if ran.Load() != 3 {
		t.Fatalf("heal ran %d callbacks, want 2", ran.Load()-1)
	}
	p.Heal() // idempotent: nothing left to run
	if ran.Load() != 3 {
		t.Fatal("second heal re-ran callbacks")
	}
}

// Link overrides are symmetric ({a,b} answers {b,a}) and win over the
// default; the seeded rng makes every roll reproducible.
func TestFaultPlanLinkLookup(t *testing.T) {
	p := NewFaultPlan(42)
	p.SetDefault(LinkFault{Latency: time.Millisecond})
	p.SetLink(1, 2, LinkFault{Latency: 5 * time.Millisecond, Drop: 1})
	for _, dir := range [][2]int{{1, 2}, {2, 1}} {
		act, severed := p.act(dir[0], dir[1])
		if severed {
			t.Fatalf("link %v severed with no partition", dir)
		}
		if act.delay != 5*time.Millisecond || !act.drop {
			t.Fatalf("link %v rolled %+v, want the override", dir, act)
		}
	}
	if act, _ := p.act(0, 3); act.delay != time.Millisecond || act.drop {
		t.Fatalf("default link rolled %+v", act)
	}
	// Determinism: two plans with the same seed roll identical fates.
	mk := func() []faultAction {
		q := NewFaultPlan(7)
		q.SetDefault(LinkFault{Jitter: time.Millisecond, Drop: 0.5, Dup: 0.5, Corrupt: 0.5, Reorder: 0.5})
		var acts []faultAction
		for i := 0; i < 50; i++ {
			a, _ := q.act(0, 1)
			acts = append(acts, a)
		}
		return acts
	}
	if !reflect.DeepEqual(mk(), mk()) {
		t.Fatal("same seed rolled different fates")
	}
}
