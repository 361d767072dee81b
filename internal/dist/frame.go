package dist

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Wire protocol v4: every message is one length-prefixed binary frame,
//
//	uint32 little-endian body length | body
//
// with a hand-rolled body encoding instead of v1's self-describing gob
// streams. The body starts with a fixed two-byte prologue (kind, flags)
// followed by a varint header shared by all kinds and a kind-specific
// payload:
//
//	kind    byte
//	flags   byte            fPrio | fVals
//	from    varint          sender rank
//	to      varint          destination rank
//	seq     uvarint         steal request/reply correlation
//	[prio   varint]         flags&fPrio: best-available-priority summary
//	payload ...             see appendFrame
//
// The optional header field is the batching heart of the protocol: any
// frame — a steal reply, a gather, a heartbeat — can carry the best
// priority among the tasks the origin locality could currently serve to
// a thief (PrioNone when it has none; new in v3). The summary is stamped
// only by the frame's originator, so every frame doubles as a
// load/promise advertisement that peers feed into priority-aware victim
// selection.
//
// Steal replies carry a *batch* of tasks: count followed by
// (payload-length, payload, id, depth, prio, bound) per task — the
// priority is a v3 addition (letting ordered searches span the wire),
// the hand-over id a v4 one (the supervision ticket of the victim's
// ledger entry). The thief's engine adopts the batch as one run and
// the first task goes to the requesting worker.
//
// v4 adds the fault-tolerance vocabulary: kAck (a *batch* of hand-over
// ids being acked — each id names its own origin via TaskID packing,
// so one coalesced frame per flush quantum certifies every subtree the
// sender completed since the last), kDeath (Want names the dead rank, fanned out
// by the hub), kPing (an empty liveness heartbeat — its value is the
// act of arriving, plus whatever coalesced header fields ride along),
// an optional incumbent-node blob on kBound, and an objective +
// witness blob on kCancel, so the best node and decision witness
// survive the death of the locality that found them.
//
// v5 adds the mesh vocabulary: kPeerAddr, kPeers (the table appendPeerTable
// encodes), kPeerHello, a node-less epidemic bound push (gone in v16) and
// kToken (colour bits tokBlack|tokActive), each in existing frame slots,
// as the package comment's table gives them.
//
// v6 added a second steal request, the split steal, whose dry victim
// split a live generator stack; v15 removes it (below).
//
// v7 adds the coordinator-failover vocabulary, spoken only by standby
// deployments (WireOptions.Standby): kHubSnap (see encodeHubSnapshot)
// and kLeave, a rank's in-band goodbye after termination, TCP-ordered
// ahead of its close, which tells a finished peer's exit from a crash.
//
// v8 adds link-fault tolerance. The body encoding above is untouched;
// instead every frame gains a fixed eight-byte trailer,
//
//	uint32 little-endian link sequence | uint32 CRC32C(body ‖ seq)
//
// covered by the length prefix (len = body + 8). The sequence is a
// per-connection counter of delivered frames — the receiver accepts
// seq == last+1, silently skips seq <= last (a retransmitted
// duplicate), and treats a gap as a link failure — and the CRC turns a
// corrupted frame into a link failure instead of a desynced
// length-prefixed stream. On a link failure with LinkGrace > 0 the
// surviving sides keep the logical session alive: the dialing side
// reconnects and sends kResume (Seq = the session id minted at
// registration, Obj = the highest link sequence it has received), the
// accepting side replies kResume with its own receive high-water mark,
// and both retransmit the frames the other missed from a bounded
// replay log. kResume frames themselves travel with sequence 0 and are
// never counted or logged. kReject answers a resume for an unknown or
// expired session, collapsing the link to the v4 death path.
//
// v9 replicates the standby by snapshot alone: v7's incremental delta
// frame is gone, and the kinds declared after it moved down one. v10
// narrows the snapshot to the rank holding rank 0's supervised hand-over
// (a varint, in place of the mirror), the incumbent and the non-nil
// gather shares; the mourned ranks reach the standby by the kDeath
// fan-out, ahead of any later snapshot on the same link. It adds kHeld
// (thief → rank 0, header only: the hand-over is registered, name me its
// holder) after kHubSnap; the kinds after it moved up one. v11 drops the
// gather shares from the snapshot: a share is sent only after Done. v12
// lets a kAck carry values: with fVals each id is followed by a counted
// byte string, the value the acked family committed (an enumeration's
// fold of the subtree). A batch without values encodes as in v11. v13
// names the root's hand-over id: a kHeld carries it in Seq, and the
// snapshot gains it as a uvarint after the holder, so the promoted rank
// can take the hand-over's ledger entry over. v14 has one topology, the
// mesh: the star's header delta and its flag, kDelta and kRejoin are
// gone, the flag bits after fDelta moved down one and the kinds after
// each of the two moved down one. v15 has one steal: the split steal's
// kind is gone, and the kinds after it moved down one. A victim under the
// stack-stealing coordination serves a kSteal that finds its pool dry by
// waiting for a running worker to shed (StackSplitter), so the thief need
// not know it. v16 has one bound broadcast: every rank, the coordinator
// included, sends a kBound with its node on every link. The epidemic
// push's kind is gone, and the kinds after it moved down one; the header's piggybacked bound
// and its flag are gone, and the flag bits after it moved down one. v17
// sends a kDeath to the rank it names too, ahead of its link's close: a
// rank mourned while it runs stops on it instead of taking over.

const (
	fPrio = 1 << 0 // header carries a best-available-priority summary
	fVals = 1 << 1 // kAck: each id is followed by its value
)

// maxFrameBody bounds a peer-supplied body length before allocation.
const maxFrameBody = 64 << 20

// maxStealBatch bounds a peer-supplied task count before allocation.
const maxStealBatch = 1 << 16

// frame is the single wire message; unused fields are zero.
type frame struct {
	Kind  kind
	From  int
	To    int
	Seq   uint64
	PS    int64 // piggybacked best-available-priority summary (PrioNone = no work)
	HasPS bool
	Obj   int64      // kBound: the broadcast bound; kCancel: witness objective; kToken: accumulated count
	Want  int        // kSteal: max tasks; kHello/kPeerHello: protocol version; kWelcome: deployment size; kDeath: dead rank; kToken: colour bits
	Blob  []byte     // kHello/kWelcome/kReject/kGather payload; kBound/kCancel retained node; kPeerAddr address; kPeers table
	Tasks []WireTask // kStealR payload
	Acks  []ack      // kAck payload: completed hand-over ids, and their values
}

// ack is one completion ack: the hand-over id, and the value its family
// committed (nil: none).
type ack struct {
	ID  uint64
	Val []byte
}

// appendFrame appends f's body encoding (no length prefix) to dst.
func appendFrame(dst []byte, f *frame) []byte {
	var flags byte
	if f.HasPS {
		flags |= fPrio
	}
	if slices.ContainsFunc(f.Acks, func(a ack) bool { return a.Val != nil }) {
		flags |= fVals
	}
	dst = append(dst, byte(f.Kind), flags)
	dst = binary.AppendVarint(dst, int64(f.From))
	dst = binary.AppendVarint(dst, int64(f.To))
	dst = binary.AppendUvarint(dst, f.Seq)
	if flags&fPrio != 0 {
		dst = binary.AppendVarint(dst, f.PS)
	}
	switch f.Kind {
	case kSteal, kHello, kWelcome, kDeath, kPeerHello, kToken:
		dst = binary.AppendUvarint(dst, uint64(f.Want))
	}
	switch f.Kind {
	case kBound, kCancel, kToken, kResume:
		dst = binary.AppendVarint(dst, f.Obj)
	}
	switch f.Kind {
	case kHello, kWelcome, kReject, kGather, kBound, kCancel, kPeerAddr, kPeers, kHubSnap:
		dst = binary.AppendUvarint(dst, uint64(len(f.Blob)))
		dst = append(dst, f.Blob...)
	case kStealR:
		dst = appendTasks(dst, f.Tasks)
	case kAck:
		dst = appendAcks(dst, f.Acks, flags&fVals != 0)
	}
	return dst
}

// appendTasks encodes a steal-reply task batch.
func appendTasks(dst []byte, tasks []WireTask) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(tasks)))
	for i := range tasks {
		t := &tasks[i]
		dst = binary.AppendUvarint(dst, uint64(len(t.Payload)))
		dst = append(dst, t.Payload...)
		dst = binary.AppendUvarint(dst, t.ID)
		dst = binary.AppendVarint(dst, int64(t.Depth))
		dst = binary.AppendVarint(dst, int64(t.Prio))
		dst = binary.AppendVarint(dst, t.Bound)
	}
	return dst
}

// appendAcks encodes a hand-over id batch, each id followed by its value
// when vals.
func appendAcks(dst []byte, acks []ack, vals bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(acks)))
	for _, a := range acks {
		dst = binary.AppendUvarint(dst, a.ID)
		if vals {
			dst = binary.AppendUvarint(dst, uint64(len(a.Val)))
			dst = append(dst, a.Val...)
		}
	}
	return dst
}

type frameReader struct {
	b []byte
}

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("dist: truncated uvarint in frame")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *frameReader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("dist: truncated varint in frame")
	}
	r.b = r.b[n:]
	return v, nil
}

// bytes slices out a counted byte string, never returning nil for an
// empty (but present) string — receivers distinguish "no payload" from
// "dead peer" by nilness.
func (r *frameReader) bytes() ([]byte, error) {
	ln, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ln > uint64(len(r.b)) {
		return nil, fmt.Errorf("dist: frame byte string of %d exceeds %d remaining", ln, len(r.b))
	}
	out := r.b[:ln:ln]
	r.b = r.b[ln:]
	if out == nil {
		out = []byte{}
	}
	return out, nil
}

// byte pops a single raw byte.
func (r *frameReader) byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, fmt.Errorf("dist: truncated byte in frame")
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

// parseFrame decodes one frame body into f. Blob and task payloads
// alias b, and Tasks and Acks reuse the arrays f arrived with: parsing a
// link's every frame into one frame value allocates for none of them,
// and the caller must be done with a frame — or have copied what it
// keeps — before parsing the next into it or reusing b.
func parseFrame(b []byte, f *frame) error {
	*f = frame{Tasks: f.Tasks[:0], Acks: f.Acks[:0]}
	if len(b) < 2 {
		return fmt.Errorf("dist: frame body of %d bytes", len(b))
	}
	f.Kind = kind(b[0])
	if f.Kind > kResume {
		return fmt.Errorf("dist: unknown frame kind %d", f.Kind)
	}
	flags := b[1]
	r := &frameReader{b: b[2:]}
	var err error
	var v int64
	if v, err = r.varint(); err != nil {
		return err
	}
	f.From = int(v)
	if v, err = r.varint(); err != nil {
		return err
	}
	f.To = int(v)
	if f.Seq, err = r.uvarint(); err != nil {
		return err
	}
	if flags&fPrio != 0 {
		if f.PS, err = r.varint(); err != nil {
			return err
		}
		f.HasPS = true
	}
	switch f.Kind {
	case kSteal, kHello, kWelcome, kDeath, kPeerHello, kToken:
		w, err := r.uvarint()
		if err != nil {
			return err
		}
		f.Want = int(w)
	}
	switch f.Kind {
	case kBound, kCancel, kToken, kResume:
		if f.Obj, err = r.varint(); err != nil {
			return err
		}
	}
	switch f.Kind {
	case kHello, kWelcome, kReject, kGather, kBound, kCancel, kPeerAddr, kPeers, kHubSnap:
		if f.Blob, err = r.bytes(); err != nil {
			return err
		}
	case kStealR:
		if f.Tasks, err = parseTasks(r, f.Tasks); err != nil {
			return err
		}
	case kAck:
		if f.Acks, err = parseAcks(r, f.Acks, flags&fVals != 0); err != nil {
			return err
		}
	}
	if len(r.b) != 0 {
		return fmt.Errorf("dist: %d trailing bytes in frame kind %d", len(r.b), f.Kind)
	}
	return nil
}

// parseTasks decodes a task batch (the kStealR payload), appending to
// tasks[:0].
func parseTasks(r *frameReader, tasks []WireTask) ([]WireTask, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxStealBatch {
		return nil, fmt.Errorf("dist: steal reply of %d tasks", n)
	}
	for ; n > 0; n-- {
		var t WireTask
		if t.Payload, err = r.bytes(); err != nil {
			return nil, err
		}
		if t.ID, err = r.uvarint(); err != nil {
			return nil, err
		}
		var v int64
		if v, err = r.varint(); err != nil {
			return nil, err
		}
		t.Depth = int(v)
		if v, err = r.varint(); err != nil {
			return nil, err
		}
		t.Prio = int(v)
		if t.Bound, err = r.varint(); err != nil {
			return nil, err
		}
		tasks = append(tasks, t)
	}
	return tasks, nil
}

// parseAcks decodes a hand-over id batch, appending to acks[:0]; values
// alias the body.
func parseAcks(r *frameReader, acks []ack, vals bool) ([]ack, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxStealBatch {
		return nil, fmt.Errorf("dist: ack batch of %d ids", n)
	}
	for ; n > 0; n-- {
		var a ack
		if a.ID, err = r.uvarint(); err != nil {
			return nil, err
		}
		if vals {
			if a.Val, err = r.bytes(); err != nil {
				return nil, err
			}
		}
		acks = append(acks, a)
	}
	return acks, nil
}

// kToken colour bits, in Want.
const (
	tokBlack  = 1 << 0 // a visited rank received tasks behind the token
	tokActive = 1 << 1 // some visited rank has ever held live work
)

// maxPeerTable bounds a peer-supplied address count before allocation.
const maxPeerTable = 1 << 16

// appendPeerTable encodes a rank-indexed peer address table (the kPeers
// blob): a uvarint count followed by counted strings. Slot 0 — the
// hub's slot — is conventionally empty: workers reach rank 0 over the
// registration connection they already hold.
func appendPeerTable(dst []byte, addrs []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(addrs)))
	for _, a := range addrs {
		dst = binary.AppendUvarint(dst, uint64(len(a)))
		dst = append(dst, a...)
	}
	return dst
}

// parsePeerTable decodes a kPeers blob.
func parsePeerTable(b []byte) ([]string, error) {
	r := &frameReader{b: b}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxPeerTable {
		return nil, fmt.Errorf("dist: peer table of %d addresses", n)
	}
	addrs := make([]string, n)
	for i := range addrs {
		bs, err := r.bytes()
		if err != nil {
			return nil, err
		}
		addrs[i] = string(bs)
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("dist: %d trailing bytes in peer table", len(r.b))
	}
	return addrs, nil
}
