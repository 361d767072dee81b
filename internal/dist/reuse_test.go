package dist

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Buffer-reuse conformance. The steal path recycles every buffer it
// touches: a link's replies are encoded into one buffer, its frames are
// read into one image, its task and ack arrays are parsed into one
// frame. What makes that safe is a rule about who copies — the
// retransmit log, the incumbent retention, the standby's replica —
// and this suite is the rule's test: a payload that outlived its buffer
// reads back as some other frame's bytes.

// appendSealed appends a byte string that names its owner: key, filler
// whose length and contents depend on key, and a CRC over both. A sealed
// string overwritten by any other bytes — another sealed string
// included — no longer opens under its key.
func appendSealed(dst []byte, key uint64) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(dst, key)
	for i := uint64(0); i < 5+key%59; i++ {
		dst = append(dst, byte(key*31+i))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

func sealed(key uint64) []byte { return appendSealed(nil, key) }

func opens(b []byte, key uint64) bool {
	if len(b) < 5 {
		return false
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	got, n := binary.Uvarint(body)
	return n > 0 && got == key && crc32.ChecksumIEEE(body) == sum
}

// reuseHandler is a locality with a bottomless stock of sealed tasks:
// every hand-over is minted an id, sealed under it and retained until
// acked; every task received is opened — on the transport's receive
// goroutine, while it still aliases the receive image — and acked. In
// steady state it allocates nothing itself, so the round-trip allocation
// gate (BenchmarkGateHotPathWireAllocs) uses it as its engine too.
type reuseHandler struct {
	tr Transport

	mu     sync.Mutex
	seq    uint64
	ledger map[uint64]struct{}

	adopted atomic.Int64 // tasks opened
	bad     atomic.Int64 // tasks that did not open under their id
	stray   atomic.Int64 // acks for ids this locality does not retain
	mourned atomic.Int64 // deaths heard
}

func (h *reuseHandler) mint() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	id := TaskID(h.tr.Rank(), h.seq)
	h.ledger[id] = struct{}{}
	return id
}

func (h *reuseHandler) ServeSteal(int) (WireTask, bool) {
	id := h.mint()
	return WireTask{Payload: sealed(id), ID: id, Depth: 1, Bound: math.MinInt64}, true
}

func (h *reuseHandler) ServeStealMulti(thief, max int, out []WireTask, buf []byte) ([]WireTask, []byte) {
	first, start := len(out), len(buf)
	for i := 0; i < max; i++ {
		id := h.mint()
		n := len(buf)
		buf = appendSealed(buf, id)
		out = append(out, WireTask{Payload: buf[n:], ID: id, Depth: 1, Bound: math.MinInt64})
	}
	// An append may have moved buf: re-slice the payloads from where it
	// ended up.
	for i := first; i < len(out); i++ {
		end := start + len(out[i].Payload)
		out[i].Payload = buf[start:end:end]
		start = end
	}
	return out, buf
}

// open checks one received task and certifies it complete.
func (h *reuseHandler) open(t WireTask) {
	h.adopted.Add(1)
	if !opens(t.Payload, t.ID) {
		h.bad.Add(1)
	}
	h.tr.Ack(TaskOrigin(t.ID), t.ID)
}

func (h *reuseHandler) AdoptTasks(ts []WireTask, keep bool) WireTask {
	for _, t := range ts {
		h.open(t)
	}
	if !keep {
		return WireTask{}
	}
	return WireTask{Local: h, ID: ts[0].ID}
}

func (h *reuseHandler) OnDeath(int)        { h.mourned.Add(1) }
func (h *reuseHandler) OnTask(t WireTask)  { h.open(t) }
func (h *reuseHandler) OnBound(int, int64) {}
func (h *reuseHandler) OnCancel(int)       {}

func (h *reuseHandler) OnAck(_ int, id uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.ledger[id]; !ok {
		h.stray.Add(1)
	}
	delete(h.ledger, id)
}

func (h *reuseHandler) outstanding() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ledger)
}

// Three ranks steal from each other without pause until 20,000 replies
// have landed, while a fourth activity broadcasts a rising bound with a
// sealed incumbent and rank 2 is partitioned off and healed mid-run.
// Every payload must open under its hand-over id where it is adopted,
// every hand-over must be acked back (across the partition too), and
// on a wire the incumbent retained at the coordinator must be the last
// one published, intact. With a standby, what rank 0 replicated to rank 1
// must open as well.
func TestConformanceBufferReuseUnderStress(t *testing.T) {
	const (
		ranks   = 3
		replies = 20_000
		grace   = 5 * time.Second
	)
	loop := func(t testing.TB, plan *FaultPlan) []Transport {
		net := NewLoopback(ranks, LoopbackOptions{Fault: plan})
		t.Cleanup(func() { net.Close() })
		return net.Transports()
	}
	tcp := func(standby bool) func(testing.TB, *FaultPlan) []Transport {
		return func(t testing.TB, plan *FaultPlan) []Transport {
			return makeTCP(t, ranks, WireOptions{Standby: standby, LinkGrace: grace, Fault: plan})
		}
	}
	for _, tc := range []struct {
		name string
		make func(testing.TB, *FaultPlan) []Transport
		wire bool
	}{
		{"loopback", loop, false},
		{"tcp", tcp(false), true},
		{"tcp-standby", tcp(true), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := NewFaultPlan(1)
			trs := tc.make(t, plan)
			hs := make([]*reuseHandler, ranks)
			for r, tr := range trs {
				hs[r] = &reuseHandler{tr: tr, ledger: make(map[uint64]struct{})}
				tr.Start(hs[r])
			}

			var landed atomic.Int64
			var wg sync.WaitGroup
			for r := range trs {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for v := r + 1; landed.Load() < replies; v++ {
						if v%ranks == r {
							continue
						}
						wt, ok, err := trs[r].Steal(v % ranks)
						switch {
						case err != nil:
							t.Errorf("rank %d stealing from %d: %v", r, v%ranks, err)
							return
						case !ok:
							runtime.Gosched() // across the partition
						default:
							landed.Add(1)
							if wt.Local == nil {
								hs[r].open(wt) // handed over by value (loopback)
							}
						}
					}
				}(r)
			}

			// The incumbent: published from rank 2, retained at rank 0.
			var published atomic.Int64
			wg.Add(1)
			go func() {
				defer wg.Done()
				for obj := int64(1); landed.Load() < replies; obj++ {
					if err := trs[2].BroadcastBound(obj, sealed(uint64(obj))); err != nil {
						t.Errorf("broadcast %d: %v", obj, err)
						return
					}
					published.Store(obj)
					time.Sleep(100 * time.Microsecond)
				}
			}()

			for landed.Load() < replies/3 {
				time.Sleep(time.Millisecond)
			}
			plan.Partition([]int{2}, 150*time.Millisecond)
			for plan.Severed(0, 2) || landed.Load() < 2*replies/3 {
				time.Sleep(time.Millisecond)
			}
			wg.Wait()

			eventually(t, "every hand-over acked back", func() bool {
				return hs[0].outstanding()+hs[1].outstanding()+hs[2].outstanding() == 0
			})
			var adopted int64
			for r, h := range hs {
				adopted += h.adopted.Load()
				if n := h.bad.Load(); n != 0 {
					t.Errorf("rank %d adopted %d payloads that do not open under their id", r, n)
				}
				if n := h.stray.Load(); n != 0 {
					t.Errorf("rank %d was acked %d ids it never handed over", r, n)
				}
				if n := h.mourned.Load(); n != 0 {
					t.Errorf("rank %d mourned %d ranks", r, n)
				}
			}
			if adopted < landed.Load() {
				t.Errorf("%d tasks adopted from %d replies", adopted, landed.Load())
			}

			if !tc.wire {
				return // in-process localities retain no incumbent and resume no session
			}
			want := published.Load()
			eventually(t, "the last incumbent retained at rank 0", func() bool {
				obj, _, ok := trs[0].BestKnown()
				return ok && obj == want
			})
			if obj, node, _ := trs[0].BestKnown(); !opens(node, uint64(obj)) {
				t.Errorf("retained incumbent %d does not open under its objective", obj)
			}
			if e1 := trs[1].(*endpoint); e1.opts.Standby {
				eventually(t, "the last incumbent replicated to the standby", func() bool {
					snap := e1.replica.Load()
					return snap != nil && snap.BestObj == want
				})
				if snap := e1.replica.Load(); !opens(snap.BestNode, uint64(snap.BestObj)) {
					t.Errorf("replicated incumbent %d does not open under its objective", snap.BestObj)
				}
			}
			var resumes int64
			for _, tr := range trs {
				resumes += tr.Wire().Resumes
			}
			if resumes == 0 {
				t.Error("the partition healed without a session resume")
			}
		})
	}
}
