package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Link-fault tolerance: the v8 session layer. A wconn with a session
// attached survives the loss of its physical TCP connection: outgoing
// frames are sequence-stamped and copied into a bounded retransmit
// log, and on an I/O error the surviving sides keep the logical link
// alive for WireOptions.LinkGrace. The dialing side reconnects and
// offers a kResume handshake (session id + receive high-water mark);
// the accepting side parks its reader until the resume (or the grace
// timer) resolves the suspension. Both sides then retransmit exactly
// the frames the other missed, so steal replies, acks, deltas, and
// gossip cross a reconnect without tripping the ledger-replay or
// failover paths. A session that cannot resume inside the grace window
// breaks, collapsing the link to the pre-v8 death path — which is
// always safe, just more expensive.

// castagnoli is the CRC32C polynomial table of the v8 frame trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sessLogBudget bounds each session's retransmit log. Resuming past a
// trimmed entry is unrecoverable and breaks the session (death path):
// the budget trades memory against the burst size a reconnect can
// bridge, never against correctness.
const sessLogBudget = 4 << 20

// frameBuf is one pooled encoded-frame image. The session retransmit
// log recycles these through frameBufPool, so the steady-state send
// path stops paying one heap allocation per logged frame: a buffer is
// taken at appendLog and returned when its entry leaves the log — a
// budget trim, a resume's trimThrough, or the session breaking.
type frameBuf struct{ b []byte }

var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

func newFrameBuf(src []byte) *frameBuf {
	fb := frameBufPool.Get().(*frameBuf)
	fb.b = append(fb.b[:0], src...)
	return fb
}

func (fb *frameBuf) release() { frameBufPool.Put(fb) }

// resumeTimeout bounds one resume handshake exchange.
const resumeTimeout = 5 * time.Second

// connIO is the physical half of a wconn: one TCP connection and its
// read buffer. A resumable session swaps the whole pair on reconnect.
type connIO struct {
	c  net.Conn
	br *bufio.Reader
}

func newConnIO(c net.Conn) *connIO {
	return &connIO{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// encodeFrame appends one length-prefixed v8 frame to dst[:0]: the
// body encoding of frame.go, the 4-byte little-endian link sequence,
// and a CRC32C over both. The length prefix covers body + trailer.
func encodeFrame(dst []byte, f *frame, seq uint32) []byte {
	buf := append(dst[:0], 0, 0, 0, 0)
	buf = appendFrame(buf, f)
	buf = binary.LittleEndian.AppendUint32(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[4:], castagnoli))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf
}

// readRawFrame reads and verifies one v8 frame, returning its link
// sequence and total wire size. A CRC mismatch is a connection
// failure, not a parse error: the stream can no longer be trusted.
// The image gets a dedicated allocation, so f's blob and task payloads
// are the caller's for good (the handshakes, which read one frame).
func readRawFrame(br *bufio.Reader, f *frame) (uint32, int, error) {
	seq, n, _, err := readRawFrameInto(br, f, nil)
	return seq, n, err
}

// readRawFrameInto is readRawFrame reading the frame image into buf
// (grown as needed) and returning the possibly-grown buffer. f's Blob
// and task payloads alias that buffer: they are valid until the caller
// reads the next frame into it (see wconn.recv for who copies what).
func readRawFrameInto(br *bufio.Reader, f *frame, buf []byte) (uint32, int, []byte, error) {
	// Peek+Discard instead of ReadFull into a local: a stack array
	// passed through the io.Reader interface escapes, costing one heap
	// allocation per frame on an otherwise allocation-free path.
	hdr, err := br.Peek(4)
	if err != nil {
		return 0, 0, buf, err
	}
	ln := binary.LittleEndian.Uint32(hdr)
	br.Discard(4)
	if ln > maxFrameBody+8 {
		return 0, 0, buf, fmt.Errorf("dist: frame body of %d bytes exceeds limit", ln)
	}
	if ln < 10 {
		return 0, 0, buf, fmt.Errorf("dist: v8 frame of %d bytes is shorter than its trailer", ln)
	}
	body := buf
	if uint32(cap(body)) < ln {
		body = make([]byte, ln)
	} else {
		body = body[:ln]
	}
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, 0, body, err
	}
	if got, want := binary.LittleEndian.Uint32(body[ln-4:]), crc32.Checksum(body[:ln-4], castagnoli); got != want {
		return 0, 0, body, fmt.Errorf("dist: frame CRC mismatch (got %#x, want %#x)", got, want)
	}
	seq := binary.LittleEndian.Uint32(body[ln-8 : ln-4])
	if err := parseFrame(body[:ln-8], f); err != nil {
		return 0, 0, body, err
	}
	return seq, int(4 + ln), body, nil
}

// mintSessionID tags a fresh session id with the rank it serves, so a
// collision across ranks is impossible and logs are attributable.
func mintSessionID(rank int) uint64 {
	return uint64(rank)<<48 | uint64(rand.Int63())&(1<<48-1)
}

// session states.
const (
	sessLive      = iota // traffic flows on the current connIO
	sessSuspended        // physical link lost; inside the grace window
	sessBroken           // grace expired or resume refused: death path
)

type sessEntry struct {
	seq uint64
	buf *frameBuf
}

// session is the resumable-link state shared by one wconn's sender and
// reader. Lock order: the owning wconn's wmu strictly before sess.mu.
type session struct {
	id    uint64
	grace time.Duration
	// rank is the local rank stamped on outgoing kResume frames.
	rank int
	// redial reconnects from the dialing side; nil on the accepting
	// side, whose reader parks until the peer's resume arrives.
	redial func() (net.Conn, error)

	mu       sync.Mutex
	cond     *sync.Cond
	state    int
	susEpoch uint64 // one grace timer per live→suspended transition
	deadline time.Time
	log      []sessEntry
	logBytes int
}

func newSession(id uint64, grace time.Duration) *session {
	s := &session{id: id, grace: grace}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *session) isSuspended() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == sessSuspended
}

func (s *session) isBroken() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == sessBroken
}

// suspend moves a live session to suspended, arming the grace timer
// that breaks it if no resume lands in time. Idempotent.
func (s *session) suspend() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.suspendLocked()
}

func (s *session) suspendLocked() {
	if s.state != sessLive {
		return
	}
	s.state = sessSuspended
	s.susEpoch++
	s.deadline = time.Now().Add(s.grace)
	epoch := s.susEpoch
	time.AfterFunc(s.grace, func() {
		s.mu.Lock()
		if s.state == sessSuspended && s.susEpoch == epoch {
			s.state = sessBroken
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	})
}

// breakSess collapses the session for good, releasing a parked reader
// and recycling the retransmit log (nothing can ever replay it).
func (s *session) breakSess() {
	s.mu.Lock()
	s.state = sessBroken
	for i := range s.log {
		s.log[i].buf.release()
		s.log[i].buf = nil
	}
	s.log = nil
	s.logBytes = 0
	s.cond.Broadcast()
	s.mu.Unlock()
}

// appendLog records an encoded frame (trailer included, clean of any
// fault-plan mutation) for retransmission, trimming the oldest entries
// past the byte budget. The caller holds the owning wconn's wmu, so
// entries arrive in sequence order. The copy lives in a pooled buffer,
// returned to the pool when the entry leaves the log.
func (s *session) appendLog(seq uint64, buf []byte) {
	cp := newFrameBuf(buf)
	s.mu.Lock()
	if s.state == sessBroken {
		// Nothing will ever replay a broken session's log; recycle now.
		s.mu.Unlock()
		cp.release()
		return
	}
	s.log = append(s.log, sessEntry{seq: seq, buf: cp})
	s.logBytes += len(cp.b)
	for s.logBytes > sessLogBudget && len(s.log) > 1 {
		s.logBytes -= len(s.log[0].buf.b)
		s.log[0].buf.release()
		s.log[0].buf = nil
		s.log = s.log[1:]
	}
	s.mu.Unlock()
}

// replayAfter rewrites every retained frame the peer has not seen. It
// fails when the log no longer reaches back to peerRecv+1: the missing
// frames are unrecoverable and the session cannot resume.
func (s *session) replayAfter(w io.Writer, peerRecv, sendSeq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sendSeq > peerRecv {
		if want := peerRecv + 1; len(s.log) == 0 || s.log[0].seq > want {
			return fmt.Errorf("dist: session %#x retransmit log trimmed past frame %d", s.id, want)
		}
	}
	for i := range s.log {
		if s.log[i].seq <= peerRecv {
			continue
		}
		if _, err := w.Write(s.log[i].buf.b); err != nil {
			return err
		}
	}
	return nil
}

// trimThrough drops log entries the peer has confirmed receiving,
// returning their buffers to the frame pool.
func (s *session) trimThrough(peerRecv uint64) {
	s.mu.Lock()
	for len(s.log) > 0 && s.log[0].seq <= peerRecv {
		s.logBytes -= len(s.log[0].buf.b)
		s.log[0].buf.release()
		s.log[0].buf = nil
		s.log = s.log[1:]
	}
	s.mu.Unlock()
}

// await is the reader goroutine's reaction to a read failure on io:
// keep the logical link alive for the grace window. On the dialing
// side it drives reconnection; on the accepting side it parks until
// the peer's resume (or the grace timer) resolves the suspension. It
// reports whether the session is live again on a fresh connection.
func (cn *wconn) await(failed *connIO) bool {
	s := cn.sess
	if s == nil || cn.dead.Load() {
		return false
	}
	s.mu.Lock()
	if s.state == sessLive && cn.cur.Load() != failed {
		// Resumed while this reader was failing out of the old
		// connection: continue on the new one.
		s.mu.Unlock()
		return true
	}
	if s.state == sessBroken {
		s.mu.Unlock()
		return false
	}
	s.suspendLocked()
	deadline := s.deadline
	if s.redial == nil {
		for s.state == sessSuspended {
			s.cond.Wait()
		}
		ok := s.state == sessLive
		s.mu.Unlock()
		return ok
	}
	s.mu.Unlock()
	return cn.redialResume(deadline)
}

// redialResume reconnects and replays until the session resumes or the
// grace deadline passes. Runs on the reader goroutine, dialing side
// only. A fault-plan partition gates the attempts: resuming across a
// severed link must wait for the heal, exactly like a real network.
func (cn *wconn) redialResume(deadline time.Time) bool {
	s := cn.sess
	for time.Now().Before(deadline) {
		if cn.halted() || s.isBroken() {
			return false
		}
		if cn.plan != nil && cn.plan.Severed(cn.fFrom, cn.fTo) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		c, err := s.redial()
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		ok, fatal := cn.tryResume(c)
		if ok {
			return true
		}
		if fatal {
			break
		}
	}
	s.breakSess()
	return false
}

// tryResume runs the dialing half of one resume handshake over a fresh
// connection: offer our receive high-water mark, learn the peer's,
// retransmit what it missed, and install the connection. fatal reports
// a refusal that no retry can fix (kReject, or a trimmed log).
func (cn *wconn) tryResume(c net.Conn) (ok, fatal bool) {
	s := cn.sess
	nio := newConnIO(c)
	c.SetDeadline(time.Now().Add(resumeTimeout))
	req := &frame{Kind: kResume, From: s.rank, Seq: s.id, Obj: int64(cn.recvSeq.Load())}
	if _, err := c.Write(encodeFrame(make([]byte, 0, 64), req, 0)); err != nil {
		c.Close()
		return false, false
	}
	var rep frame
	if _, _, err := readRawFrame(nio.br, &rep); err != nil {
		c.Close()
		return false, false
	}
	if rep.Kind == kReject {
		c.Close()
		return false, true
	}
	if rep.Kind != kResume || rep.Seq != s.id {
		c.Close()
		return false, false
	}
	c.SetDeadline(time.Time{})
	peerRecv := uint64(rep.Obj)
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if cn.halted() {
		c.Close()
		return false, true
	}
	if err := s.replayAfter(c, peerRecv, cn.sendSeq); err != nil {
		c.Close()
		return false, true
	}
	s.trimThrough(peerRecv)
	cn.cur.Store(nio)
	s.mu.Lock()
	s.state = sessLive
	s.cond.Broadcast()
	s.mu.Unlock()
	if cn.ctr != nil {
		cn.ctr.resumes.Add(1)
	}
	return true, false
}

// sessRegistry maps live session ids to their connections on the
// accepting side of a deployment (the hub's registration listener, a
// mesh worker's peer listener, a promoted hub's adoption listener).
type sessRegistry struct {
	mu sync.Mutex
	m  map[uint64]*wconn
}

func newSessRegistry() *sessRegistry { return &sessRegistry{m: make(map[uint64]*wconn)} }

func (r *sessRegistry) add(id uint64, cn *wconn) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.m[id] = cn
	r.mu.Unlock()
}

func (r *sessRegistry) lookup(id uint64) *wconn {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[id]
}

// acceptResumes serves the post-registration life of an accepting
// listener: every later connection is a resume attempt for a
// registered session; anything else is turned away.
func acceptResumes(ln net.Listener, reg *sessRegistry, closed *atomic.Bool) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		if closed != nil && closed.Load() {
			c.Close()
			return
		}
		go handleResume(c, reg)
	}
}

// handleResume runs the accepting half of one resume handshake: learn
// the dialer's receive high-water mark, answer with ours, retransmit
// what it missed, install the connection, and kick the reader off the
// dead one (a half-open read would otherwise park forever).
func handleResume(c net.Conn, reg *sessRegistry) {
	c.SetDeadline(time.Now().Add(resumeTimeout))
	nio := newConnIO(c)
	var req frame
	if _, _, err := readRawFrame(nio.br, &req); err != nil || req.Kind != kResume {
		c.Close()
		return
	}
	cn := reg.lookup(req.Seq)
	if cn == nil || cn.halted() || cn.sess == nil || cn.sess.isBroken() {
		c.Write(encodeFrame(nil, &frame{Kind: kReject, Seq: req.Seq, Blob: []byte("unknown or expired session")}, 0))
		c.Close()
		return
	}
	s := cn.sess
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if s.isBroken() || cn.halted() {
		c.Write(encodeFrame(nil, &frame{Kind: kReject, Seq: req.Seq, Blob: []byte("session expired")}, 0))
		c.Close()
		return
	}
	old := cn.cur.Load()
	rep := &frame{Kind: kResume, From: s.rank, Seq: s.id, Obj: int64(cn.recvSeq.Load())}
	if _, err := c.Write(encodeFrame(make([]byte, 0, 64), rep, 0)); err != nil {
		c.Close()
		return
	}
	if err := s.replayAfter(c, uint64(req.Obj), cn.sendSeq); err != nil {
		c.Close()
		s.breakSess()
		return
	}
	s.trimThrough(uint64(req.Obj))
	c.SetDeadline(time.Time{})
	cn.cur.Store(nio)
	if old != nil && old != nio {
		old.c.Close()
	}
	s.mu.Lock()
	s.state = sessLive
	s.cond.Broadcast()
	s.mu.Unlock()
	if cn.ctr != nil {
		cn.ctr.resumes.Add(1)
	}
}

var errLinkSevered = errors.New("dist: link severed by fault plan")
