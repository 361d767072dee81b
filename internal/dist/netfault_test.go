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

// Partition-heal conformance: on every transport × topology, a
// partition shorter than the link grace is invisible to the search —
// traffic issued across the cut arrives after the heal, steals succeed
// again, and nobody is declared dead. The TCP harnesses must get there
// via real session resumes; the loopback ones via heal-deferred
// delivery.
func TestConformancePartitionHeal(t *testing.T) {
	const grace = 2 * time.Second
	type faultHarness struct {
		name        string
		wantResumes bool
		make        func(t *testing.T, n int, plan *FaultPlan) []Transport
	}
	fhs := []faultHarness{
		{name: "loopback", make: func(t *testing.T, n int, plan *FaultPlan) []Transport {
			net := NewLoopback(n, LoopbackOptions{Fault: plan})
			t.Cleanup(func() { net.Close() })
			return net.Transports()
		}},
		{name: "tcp", wantResumes: true, make: func(t *testing.T, n int, plan *FaultPlan) []Transport {
			return makeTCP(t, n, WireOptions{LinkGrace: grace, Fault: plan})
		}},
		{name: "loopback-mesh", make: func(t *testing.T, n int, plan *FaultPlan) []Transport {
			net := NewLoopback(n, LoopbackOptions{Wave: true, Fault: plan})
			t.Cleanup(func() { net.Close() })
			return net.Transports()
		}},
		{name: "tcp-mesh", wantResumes: true, make: func(t *testing.T, n int, plan *FaultPlan) []Transport {
			return makeTCP(t, n, WireOptions{Topology: TopologyMesh, LinkGrace: grace, Fault: plan})
		}},
	}
	for _, fh := range fhs {
		t.Run(fh.name, func(t *testing.T) {
			plan := NewFaultPlan(1)
			trs := fh.make(t, 3, plan)
			hs := startAll(trs)

			// Sanity: with the plan attached but idle, a steal works.
			hs[2].push(WireTask{Payload: []byte("before"), Bound: 1})
			eventually(t, "pre-partition steal", func() bool {
				task, ok, err := trs[0].Steal(2)
				return err == nil && ok && string(task.Payload) == "before"
			})

			// Cut rank 2 off for well under the grace window, and let it
			// shout into the partition: the broadcast must survive the cut.
			plan.Partition([]int{2}, 300*time.Millisecond)
			if err := trs[2].BroadcastBound(42, nil); err != nil {
				t.Fatalf("broadcast across the partition: %v", err)
			}
			eventually(t, "bound crossing the healed link", func() bool {
				return hs[1].boundMax.Load() >= 42
			})

			// Steals from the once-severed rank work again (the first
			// attempts may fast-fail while the link is still suspected).
			hs[2].push(WireTask{Payload: []byte("after"), Bound: 2})
			eventually(t, "post-heal steal", func() bool {
				task, ok, err := trs[0].Steal(2)
				return err == nil && ok && string(task.Payload) == "after"
			})

			// Nobody died: the cut stayed inside the grace window.
			for i, tr := range trs {
				select {
				case r := <-tr.Deaths():
					t.Fatalf("rank %d mourned rank %d across a sub-grace partition", i, r)
				default:
				}
			}

			// The TCP paths must have healed by resuming sessions, not by
			// quietly reconnecting from scratch.
			var resumes int64
			for _, tr := range trs {
				if m, ok := tr.(Meter); ok {
					resumes += m.Wire().Resumes
				}
			}
			if fh.wantResumes && resumes == 0 {
				t.Fatal("partition healed without a single session resume")
			}
			if !fh.wantResumes && resumes != 0 {
				t.Fatalf("loopback transport reported %d session resumes", resumes)
			}
		})
	}
}

// stampHandler reports when each bound, cancel and ack reaches it.
type stampHandler struct {
	recHandler
	bounds, cancels, acks chan time.Time // one slot per delivery the test makes
}

func (h *stampHandler) OnBound(int, int64) { h.bounds <- time.Now() }
func (h *stampHandler) OnCancel(int)       { h.cancels <- time.Now() }
func (h *stampHandler) OnAck(int, uint64)  { h.acks <- time.Now() }

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
