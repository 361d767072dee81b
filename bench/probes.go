package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"yewpar/internal/apps/knapsack"
	"yewpar/internal/apps/maxclique"
	"yewpar/internal/apps/uts"
	"yewpar/internal/bitset"
	"yewpar/internal/core"
	"yewpar/internal/dist"
	"yewpar/internal/graph"
)

// The probes time single layers from outside, through their public
// functions, on small fixed shapes. They run in every traced pass,
// whatever the workload: a layer's cost per operation does not depend
// on which workload is being measured, and having all of them next to
// each workload's counts is what lets a change be attributed.

// probeSink keeps probe results alive so the compiler cannot drop the
// probed calls.
var probeSink atomic.Int64

// nsPerOp runs f(n) five times and returns the median nanoseconds per
// operation.
func nsPerOp(n int, f func(n int)) float64 {
	var runs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		f(n)
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(runs)
}

// probeSizes scales the probes' iteration counts: full for a real run,
// small for the tests.
type probeSizes struct {
	kernelOps, poolOps, steals, wireTasks, samples int
}

var (
	fullProbes = probeSizes{kernelOps: 2_000_000, poolOps: 400_000, steals: 2_000, wireTasks: 20_000, samples: 256}
	miniProbes = probeSizes{kernelOps: 20_000, poolOps: 4_000, steals: 100, wireTasks: 400, samples: 32}
)

// probeFunc measures one layer and stores its metrics in m by name.
type probeFunc func(m map[string]float64, seed int64, sz probeSizes) error

// runProbes measures every probed layer and returns the per-layer
// metrics by name, one span per probe.
func runProbes(seed int64, sz probeSizes, rec *recorder, parent int) (map[string]float64, error) {
	m := make(map[string]float64)
	for _, p := range []struct {
		name string
		run  probeFunc
	}{
		{"bitset", probeBitset},
		{"maxclique", probeMaxclique},
		{"uts", probeUTS},
		{"knapsack", probeKnapsack},
		{"pools", probePools},
		{"loopback", probeLoopback},
		{"tcp_star", stealRTTProbe("dist.tcp_star", dist.TopologyStar)},
		{"tcp_mesh", stealRTTProbe("dist.tcp_mesh", dist.TopologyMesh)},
		{"tcp_star_throughput", probeWireThroughput},
	} {
		id := rec.begin("probe."+p.name, parent, 0)
		err := p.run(m, seed, sz)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return m, nil
}

// probeBitset times the two fused kernels maxclique lives in, at the
// 4-word shape of the 220-vertex workload graph.
func probeBitset(m map[string]float64, seed int64, sz probeSizes) error {
	rng := rand.New(rand.NewSource(seed))
	const bits = 220
	a, b, dst := bitset.New(bits), bitset.New(bits), bitset.New(bits)
	for i := 0; i < bits; i++ {
		if rng.Intn(2) == 0 {
			a.Add(i)
		}
		if rng.Intn(4) != 0 {
			b.Add(i)
		}
	}
	m["bitset.intersect_count_ns"] = nsPerOp(sz.kernelOps, func(n int) {
		sum := 0
		for i := 0; i < n; i++ {
			sum += bitset.IntersectIntoCount(dst, a, b)
		}
		probeSink.Add(int64(sum))
	})
	m["bitset.popnext_ns"] = nsPerOp(sz.kernelOps, func(n int) {
		sum := 0
		for i := 0; i < n; i++ {
			v := dst.PopNext()
			if v < 0 {
				dst.CopyFrom(b)
			}
			sum += v
		}
		probeSink.Add(int64(sum))
	})
	return nil
}

// walkSample collects count nodes along random root-to-leaf walks, so
// the sample has the depth mix a search meets.
func walkSample[S, N any](space S, root N, gen core.GenFactory[S, N], count int, rng *rand.Rand) []N {
	var nodes []N
	for len(nodes) < count {
		n := root
		for {
			nodes = append(nodes, n)
			g := gen(space, n)
			var kids []N
			for g.HasNext() {
				kids = append(kids, g.Next())
			}
			if len(kids) == 0 {
				break
			}
			n = kids[rng.Intn(len(kids))]
		}
	}
	return nodes[:count]
}

// genNsPerChild times a generator factory over the sampled nodes:
// construct (for maxclique: colour) and iterate every child.
func genNsPerChild[S, N any](space S, gen core.GenFactory[S, N], nodes []N) float64 {
	children := 0
	for _, n := range nodes {
		for g := gen(space, n); g.HasNext(); g.Next() {
			children++
		}
	}
	if children == 0 {
		return 0
	}
	perSweep := nsPerOp(1, func(int) {
		for _, n := range nodes {
			for g := gen(space, n); g.HasNext(); g.Next() {
			}
		}
	})
	return perSweep / float64(children)
}

// codecProbe times encode and decode of the sampled nodes and reports
// the mean encoded size.
func codecProbe[N any](m map[string]float64, prefix string, codec core.Codec[N], nodes []N) error {
	var blobs [][]byte
	total := 0
	for _, n := range nodes {
		b, err := codec.Encode(n)
		if err != nil {
			return err
		}
		blobs = append(blobs, b)
		total += len(b)
	}
	var scratch []byte
	m[prefix+".codec_encode_ns"] = nsPerOp(len(nodes), func(int) {
		for _, n := range nodes {
			scratch, _ = codec.EncodeTo(scratch[:0], n) // encoded once above without error
		}
	})
	var derr error
	m[prefix+".codec_decode_ns"] = nsPerOp(len(blobs), func(int) {
		for _, b := range blobs {
			if _, err := codec.Decode(b); err != nil {
				derr = err
			}
		}
	})
	m[prefix+".codec_bytes"] = float64(total) / float64(len(nodes))
	return derr
}

func probeMaxclique(m map[string]float64, seed int64, sz probeSizes) error {
	var g *graph.Graph
	m["graph.generate_ms"] = nsPerOp(1, func(int) { g = graph.Random(220, 0.75, seed+6) }) / 1e6
	var s *maxclique.Space
	m["maxclique.space_build_ms"] = nsPerOp(1, func(int) {
		s = maxclique.NewSpace(g)
		probeSink.Add(int64(maxclique.Root(s).Bound))
	}) / 1e6
	nodes := walkSample(s, maxclique.Root(s), maxclique.Gen, sz.samples, rand.New(rand.NewSource(seed)))
	m["maxclique.gen_ns_per_child"] = genNsPerChild(s, maxclique.Gen, nodes)
	return nil
}

func probeUTS(m map[string]float64, seed int64, sz probeSizes) error {
	sp := newUTS(seed, true, false).sp
	nodes := walkSample(sp, uts.Root(sp), uts.Gen, sz.samples, rand.New(rand.NewSource(seed)))
	m["uts.gen_ns_per_child"] = genNsPerChild(sp, uts.Gen, nodes)
	return codecProbe(m, "uts", uts.Codec(), nodes)
}

func probeKnapsack(m map[string]float64, seed int64, sz probeSizes) error {
	s := knapsack.Generate(29, 10_000, knapsack.SubsetSum, seed+102)
	nodes := walkSample(s, knapsack.Root(s), knapsack.Gen, sz.samples, rand.New(rand.NewSource(seed)))
	m["knapsack.gen_ns_per_child"] = genNsPerChild(s, knapsack.Gen, nodes)
	return codecProbe(m, "knapsack", knapsack.Codec(), nodes)
}

// probePools times the workpools at the 2-shard shape the parallel
// workloads run: every worker pushing and popping on its own shard (the
// spawn/pop loop), and an idle owner robbing its sibling.
func probePools(m map[string]float64, _ int64, sz probeSizes) error {
	ownerPushPop := func(kind core.PoolKind) float64 {
		p := core.NewShardedPool[int](kind, searchWorkers)
		return nsPerOp(sz.poolOps, func(n int) {
			var wg sync.WaitGroup
			for w := 0; w < searchWorkers; w++ {
				wg.Add(1)
				go func(shard core.Pool[int]) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						shard.Push(core.Task[int]{Node: i, Depth: i % 8, Prio: int32(i % 16)})
						shard.Pop()
					}
				}(p.Shard(w))
			}
			wg.Wait()
		})
	}
	m["core.pool_pushpop_ns"] = ownerPushPop(core.DepthPoolKind)
	m["core.priopool_pushpop_ns"] = ownerPushPop(core.PrioBucketKind)

	p := core.NewShardedPool[int](core.DepthPoolKind, searchWorkers)
	var runs []float64
	for r := 0; r < 5; r++ {
		for i := 0; i < sz.poolOps; i++ {
			p.Shard(0).Push(core.Task[int]{Node: i, Depth: i % 8})
		}
		t0 := time.Now()
		for i := 0; i < sz.poolOps; i++ {
			p.StealExcept(1)
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(sz.poolOps))
	}
	m["core.pool_sibling_steal_ns"] = median(runs)
	return nil
}

// stubLocality is the Handler the transport probes attach: a victim
// with a bottomless stock of one encoded task, and a thief that counts
// and acknowledges what it is handed. With supervise set it does the
// per-hand-over ledger work a real locality does (mint an id, retain,
// retire on ack).
type stubLocality struct {
	tr        dist.Transport
	task      dist.WireTask
	supervise bool

	mu     sync.Mutex
	seq    uint64
	ledger map[uint64]struct{}
	extras int
}

func (h *stubLocality) ServeSteal(int) (dist.WireTask, bool) {
	t := h.task
	if t.Payload == nil && t.Local == nil {
		return t, false
	}
	if h.supervise {
		h.mu.Lock()
		h.seq++
		t.ID = dist.TaskID(h.tr.Rank(), h.seq)
		h.ledger[t.ID] = struct{}{}
		h.mu.Unlock()
	}
	return t, true
}
func (h *stubLocality) OnBound(int, int64) {}
func (h *stubLocality) OnCancel(int)       {}
func (h *stubLocality) OnAck(_ int, id uint64) {
	h.mu.Lock()
	delete(h.ledger, id)
	h.mu.Unlock()
}
func (h *stubLocality) OnTask(t dist.WireTask) {
	h.mu.Lock()
	h.extras++
	h.mu.Unlock()
	h.ack(t)
}

func (h *stubLocality) ack(t dist.WireTask) {
	if t.ID != 0 {
		_ = h.tr.Ack(dist.TaskOrigin(t.ID), t.ID) // a lost ack only leaves a stub ledger entry behind
	}
}

func (h *stubLocality) takeExtras() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.extras
	h.extras = 0
	return n
}

func probeLoopback(m map[string]float64, _ int64, sz probeSizes) error {
	net := dist.NewLoopback(2, dist.LoopbackOptions{})
	defer net.Close()
	trs := net.Transports()
	trs[0].Start(&stubLocality{tr: trs[0], task: dist.WireTask{Local: 1, Depth: 1}})
	trs[1].Start(&stubLocality{tr: trs[1]})
	var serr error
	m["dist.loopback.steal_ns"] = nsPerOp(sz.steals*10, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok, err := trs[1].Steal(0); err != nil || !ok {
				serr = fmt.Errorf("loopback steal failed: ok=%v err=%v", ok, err)
			}
		}
	})
	return serr
}

// stealRTTProbe times single unbatched steals of a 21-byte task from
// rank 1 to the coordinator over real TCP: the round trip every
// blocking steal of the distributed workloads pays.
func stealRTTProbe(prefix, topology string) probeFunc {
	return func(m map[string]float64, _ int64, sz probeSizes) error {
		trs, err := deployTCP("bench probe", dist.WireOptions{Topology: topology, StealBatch: 1})
		if err != nil {
			return err
		}
		defer closeAll(trs)
		trs[0].Start(&stubLocality{tr: trs[0], task: dist.WireTask{Payload: make([]byte, 21), Depth: 1}})
		trs[1].Start(&stubLocality{tr: trs[1]})
		rtts := make([]float64, 0, sz.steals)
		for i := 0; i < sz.steals; i++ {
			t0 := time.Now()
			_, ok, err := trs[1].Steal(0)
			if err != nil || !ok {
				return fmt.Errorf("steal %d failed: ok=%v err=%v", i, ok, err)
			}
			rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		m[prefix+".steal_rtt_p50_us"] = percentile(rtts, 50)
		m[prefix+".steal_rtt_p99_us"] = percentile(rtts, 99)
		return nil
	}
}

// probeWireThroughput drains supervised uts tasks over the TCP star at
// the default steal batch: encode at the victim, batched reply, decode
// and completion ack at the thief.
func probeWireThroughput(m map[string]float64, seed int64, sz probeSizes) error {
	trs, err := deployTCP("bench probe", dist.WireOptions{})
	if err != nil {
		return err
	}
	defer closeAll(trs)
	sp := newUTS(seed, true, false).sp
	codec := uts.Codec()
	payload, err := codec.Encode(uts.Root(sp))
	if err != nil {
		return err
	}
	victim := &stubLocality{tr: trs[0], task: dist.WireTask{Payload: payload, Depth: 1}, supervise: true, ledger: make(map[uint64]struct{})}
	thief := &stubLocality{tr: trs[1]}
	trs[0].Start(victim)
	trs[1].Start(thief)
	got := 0
	t0 := time.Now()
	for got < sz.wireTasks {
		wt, ok, err := trs[1].Steal(0)
		if err != nil || !ok {
			return fmt.Errorf("steal failed after %d tasks: ok=%v err=%v", got, ok, err)
		}
		if _, err := codec.Decode(wt.Payload); err != nil {
			return err
		}
		thief.ack(wt)
		got += 1 + thief.takeExtras()
	}
	m["dist.tcp_star.tasks_per_s"] = float64(got) / time.Since(t0).Seconds()
	return nil
}
