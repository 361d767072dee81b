package dist

import (
	"testing"
	"time"
)

// A ChaosPlan partition schedule drives its FaultPlan: the split
// lands at After, heals itself after Dur, and stop() heals whatever
// is still severed.
func TestChaosPlanSchedulesPartitions(t *testing.T) {
	net := NewFaultPlan(1)
	plan := ChaosPlan{
		Partitions: []ChaosPartition{
			{Ranks: []int{1}, After: 20 * time.Millisecond, Dur: 40 * time.Millisecond},
		},
		Net: net,
	}
	stop := plan.Start(nil)
	defer stop()
	eventually(t, "scheduled partition", func() bool { return net.Severed(0, 1) })
	eventually(t, "scheduled heal", func() bool { return !net.Severed(0, 1) })

	// An open-ended partition (Dur 0) is healed by stop.
	plan2 := ChaosPlan{Partitions: []ChaosPartition{{Ranks: []int{2}, After: time.Millisecond}}, Net: net}
	stop2 := plan2.Start(nil)
	eventually(t, "open-ended partition", func() bool { return net.Severed(0, 2) })
	stop2()
	if net.Severed(0, 2) {
		t.Fatal("stop did not heal the open-ended partition")
	}
}

// stampHandler reports when each bound, cancel and ack reaches it.
type stampHandler struct {
	recHandler
	bounds, cancels, acks chan time.Time // one slot per delivery the test makes
}

func (h *stampHandler) OnBound(int, int64)             { h.bounds <- time.Now() }
func (h *stampHandler) OnCancel(int)                   { h.cancels <- time.Now() }
func (h *stampHandler) OnAckValue(int, uint64, []byte) { h.acks <- time.Now() }

// The fault plan is the loopback network's only source of delay, and
// every message over a link pays the link's latency, not steals alone:
// a bound, a cancel and an ack over a 5 ms link reach the peer's handler
// no sooner than that, over a link without latency they arrive before
// the call returns, and across a partition they arrive at Heal.
func TestLoopbackFaultLatencyDelaysBoundsAndCancel(t *testing.T) {
	const lat = 5 * time.Millisecond
	plan := NewFaultPlan(1)
	plan.SetLink(0, 1, LinkFault{Latency: lat}) // 0↔2 keeps the zero default
	net := NewLoopback(3, LoopbackOptions{Fault: plan})
	defer net.Close()
	trs := net.Transports()
	hs := make([]*stampHandler, len(trs))
	for i, tr := range trs {
		hs[i] = &stampHandler{bounds: make(chan time.Time, 2), cancels: make(chan time.Time, 2), acks: make(chan time.Time, 2)}
		tr.Start(hs[i])
	}
	arrived := func(what string, ch chan time.Time) time.Time {
		t.Helper()
		select {
		case at := <-ch:
			return at
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never arrived", what)
			return time.Time{}
		}
	}
	arrivedAlready := func(what string, ch chan time.Time) {
		t.Helper()
		select {
		case <-ch:
		default:
			t.Fatalf("%s had not arrived when the call returned", what)
		}
	}

	for _, msg := range []struct {
		name string
		send func() error
		at   func(h *stampHandler) chan time.Time
	}{
		{"bound", func() error { return trs[0].BroadcastBound(7, nil) }, func(h *stampHandler) chan time.Time { return h.bounds }},
		{"cancel", func() error { return trs[0].Cancel(7, nil) }, func(h *stampHandler) chan time.Time { return h.cancels }},
	} {
		sent := time.Now()
		if err := msg.send(); err != nil {
			t.Fatalf("%s: %v", msg.name, err)
		}
		arrivedAlready(msg.name+" over the zero-latency link", msg.at(hs[2]))
		if d := arrived(msg.name+" over the slow link", msg.at(hs[1])).Sub(sent); d < lat {
			t.Fatalf("%s crossed a %v link in %v", msg.name, lat, d)
		}

		// Severed, the zero-latency link holds the message until Heal.
		plan.Partition([]int{2}, 0)
		if err := msg.send(); err != nil {
			t.Fatalf("%s into the partition: %v", msg.name, err)
		}
		arrived(msg.name+" over the slow link", msg.at(hs[1])) // 5 ms on: rank 2 has had its chance
		select {
		case <-msg.at(hs[2]):
			t.Fatalf("%s crossed a severed link", msg.name)
		default:
		}
		plan.Heal()
		arrivedAlready(msg.name+" at Heal", msg.at(hs[2]))
	}

	sent := time.Now()
	if err := trs[1].Ack(0, 1); err != nil {
		t.Fatal(err)
	}
	if d := arrived("ack over the slow link", hs[0].acks).Sub(sent); d < lat {
		t.Fatalf("ack crossed a %v link in %v", lat, d)
	}
	if err := trs[2].Ack(0, 2); err != nil {
		t.Fatal(err)
	}
	arrivedAlready("ack over the zero-latency link", hs[0].acks)
}

// Link latency makes a TCP link long, not slow: it delays each frame's
// delivery and keeps the link's order, jitter or not, but holds no lock
// while it waits, so k frames sent back to back all arrive about one
// latency after they left, not k latencies.
func TestTCPLatencyDelaysWithoutThrottling(t *testing.T) {
	const lat, jitter, k = 100 * time.Millisecond, 20 * time.Millisecond, 10
	snd, rcv, cleanup := benchWirePair(t)
	defer cleanup()
	plan := NewFaultPlan(1)
	plan.SetDefault(LinkFault{Latency: lat, Jitter: jitter})
	snd.attachFault(plan, 0, 1)
	start := time.Now()
	for i := range k {
		if err := snd.send(&frame{Kind: kPing, From: i}); err != nil {
			t.Fatal(err)
		}
	}
	if sent := time.Since(start); sent > lat/2 {
		t.Fatalf("sending %d frames took %v: the sender waited out the latency", k, sent)
	}
	var f frame
	for i := range k {
		// A frame out of order would fail recv: a gap in the link sequence.
		if err := rcv.recv(&f); err != nil || f.From != i {
			t.Fatalf("frame %d: got frame %d, %v", i, f.From, err)
		}
		if i == 0 && time.Since(start) < lat {
			t.Fatalf("the first frame arrived after %v, before the latency", time.Since(start))
		}
	}
	if took := time.Since(start); took > lat+jitter+lat/2 {
		t.Fatalf("%d frames took %v over a link of latency %v: the link is throttled", k, took, lat)
	}
}
