package dist

import (
	"sync"
	"time"
)

// Chaos harness: a declarative schedule of rank deaths, reusable
// across the fault-injection surfaces the repo already has — closing
// an in-process TCP endpoint, a subprocess deployment's SIGKILL, or any
// other func(rank). Tests and experiments describe WHAT dies WHEN;
// the harness owns the timers, so a chaos scenario reads as data:
//
//	stop := dist.ChaosPlan{Kills: []dist.ChaosKill{
//		{Rank: 0, After: 30 * time.Millisecond},
//		{Rank: 2, After: 60 * time.Millisecond},
//	}}.Start(func(rank int) { procs[rank].Kill() })
//	defer stop()
//
// The harness deliberately has no liveness opinions: killing an
// already-dead rank must be a no-op of the injected kill func (both
// Transport.Close and process SIGKILL are idempotent).

// ChaosKill schedules one rank's death.
type ChaosKill struct {
	Rank  int           // who dies
	After time.Duration // measured from ChaosPlan.Start
}

// ChaosPartition schedules one network partition against the plan's
// FaultPlan: Ranks on one side, everyone else on the other.
type ChaosPartition struct {
	Ranks []int         // one side of the split
	After time.Duration // measured from ChaosPlan.Start
	Dur   time.Duration // how long until the heal; 0 means until stop
}

// ChaosPlan is a schedule of deaths and partitions to inject into a
// deployment. Kills and Partitions compose: ChaosPlan schedules WHO
// dies and WHEN the network splits, Net decides WHICH links lie in
// between (latency, loss, duplication, corruption).
type ChaosPlan struct {
	Kills      []ChaosKill
	Partitions []ChaosPartition
	Net        *FaultPlan // required when Partitions is non-empty
}

// Start arms the plan: each kill and partition fires on its own
// timer, kills calling the injected kill func with the victim's rank,
// partitions driving Net.Partition/Heal. The returned stop func
// cancels anything still pending (already-fired events are history),
// waits for in-flight callbacks to return, and heals a partition left
// open; it is safe to call more than once.
func (p ChaosPlan) Start(kill func(rank int)) (stop func()) {
	var wg sync.WaitGroup
	timers := make([]*time.Timer, 0, len(p.Kills)+len(p.Partitions))
	for _, k := range p.Kills {
		k := k
		wg.Add(1)
		timers = append(timers, time.AfterFunc(k.After, func() {
			defer wg.Done()
			kill(k.Rank)
		}))
	}
	for _, part := range p.Partitions {
		part := part
		wg.Add(1)
		timers = append(timers, time.AfterFunc(part.After, func() {
			defer wg.Done()
			p.Net.Partition(part.Ranks, part.Dur)
		}))
	}
	var cancelOnce sync.Once
	return func() {
		cancelOnce.Do(func() {
			for _, t := range timers {
				if t.Stop() {
					wg.Done() // never fired, never will
				}
			}
		})
		wg.Wait()
		if p.Net != nil {
			p.Net.Heal()
		}
	}
}
