package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// The memory governor bounds what a locality's workpool may hold
// resident (Config.PoolBudget, in bytes). Search frontiers — especially
// under best-first or bound-ordered scheduling — can dwarf the tree
// actually visited, so an unbounded pool is what stands between solving
// an instance and OOMing on it. The governor translates the byte budget
// into task-count thresholds using a per-task estimate calibrated from
// the root node's encoded size, then responds to pressure in preference
// order:
//
//  1. Advertise: a pressured locality reports steal rank 0
//     (BestStealPrio), so priority-aware thieves drain it first —
//     handing work away is free memory relief.
//  2. Deepen: the task body (runTask, shedWalk) trades spawning for
//     inline expansion — (spawn-depth) walks in place even above
//     d_cutoff, (spawn-budget) stops shedding its stack — so the
//     frontier stops growing at the source.
//  3. Spill: past the hard threshold the coldest tasks (deepest depth,
//     or worst priority) are batch-encoded through the app Codec into a
//     per-locality disk segment and re-admitted when the in-RAM pool
//     drains.
//
// Spilling is result-invariant: a spilled task stays a registered live
// task (termination cannot fire past it), keeps its supervision family
// in memory, and re-enters the pool unchanged.

// spillTaskOverhead is the per-task resident-memory estimate beyond the
// encoded node: Task struct, bucket slot, and slack.
const spillTaskOverhead = 64

// memFloorTasks is the minimum hard threshold: a budget smaller than a
// handful of tasks would spill on every spawn without bounding anything
// meaningfully.
const memFloorTasks = 16

// spillSegMax caps tasks per spill segment file.
const spillSegMax = 4096

// memState is one locality's memory accountant. It exists for every
// pool-based run (so peak accounting and the CLI mem: line are always
// live); the spill store and pressure thresholds engage only under a
// budget.
type memState[N any] struct {
	pool    *ShardedPool[N]
	budget  int64    // bytes; 0 = unbounded (accounting only)
	codec   Codec[N] // sizes a task; encodes the spill segments
	perTask atomic.Int64
	hard    atomic.Int64 // resident tasks beyond this: spill
	soft    atomic.Int64 // spill down to this; pressure signal above it

	spillMu sync.Mutex // at most one spiller per locality
	store   *spillStore[N]

	onDisk       atomic.Int64 // tasks currently parked in segments
	spilledTotal atomic.Int64 // cumulative tasks ever spilled
	spillBytes   atomic.Int64 // cumulative segment bytes written
}

func newMemState[N any](pool *ShardedPool[N], budget int64, spillDir string, codec Codec[N]) *memState[N] {
	ms := &memState[N]{pool: pool, budget: budget, codec: codec}
	if budget > 0 {
		ms.store = &spillStore[N]{base: spillDir, codec: codec}
	}
	ms.perTask.Store(spillTaskOverhead) // pre-calibration placeholder
	ms.setThresholds()
	return ms
}

// calibrate fixes the per-task byte estimate from a sample node (the
// search root) and derives the task-count thresholds. A node that the
// codec cannot encode keeps the placeholder estimate — such a
// deployment cannot spill either, and maybeSpill degrades to counting.
func (ms *memState[N]) calibrate(sample N) {
	if b, err := ms.codec.Encode(sample); err == nil {
		ms.perTask.Store(int64(len(b)) + spillTaskOverhead)
	}
	ms.setThresholds()
}

func (ms *memState[N]) setThresholds() {
	if ms.budget <= 0 {
		ms.hard.Store(int64(^uint64(0) >> 1))
		ms.soft.Store(int64(^uint64(0) >> 1))
		return
	}
	hard := ms.budget / ms.perTask.Load()
	if hard < memFloorTasks {
		hard = memFloorTasks
	}
	soft := hard * 3 / 4
	if soft < 1 {
		soft = 1
	}
	ms.hard.Store(hard)
	ms.soft.Store(soft)
}

// pressured reports whether the locality's pool is above its soft
// threshold — the signal the advertise and deepen responses key off.
// Without a budget the pool is not consulted: its size is a sum over
// every shard's counter, lines an unbudgeted run never needs to pull.
func (ms *memState[N]) pressured() bool {
	return ms.budget > 0 && ms.pool.Tasks() > ms.soft.Load()
}

// headroom clamps the length of a spawner's next run of tasks to what
// the pool can take before its hard threshold — always at least one, the
// task whose push is what trips the spill.
func (ms *memState[N]) headroom(run int) int {
	if ms.store == nil {
		return run
	}
	return max(1, min(run, int(ms.hard.Load()-ms.pool.Tasks())))
}

// maybeSpill is the spawn-path hook: when the pool has grown past the
// hard threshold, the spawning worker parks the coldest tasks on disk
// until the pool is back at the soft threshold. One spiller per locality
// at a time: a spawner that arrives over the threshold while another
// spills waits its turn — a producer that kept pushing through a
// sibling's disk write would outrun it by thousands of tasks — and
// usually finds nothing left to do. Tasks whose segment cannot be
// written (disk full, unencodable node) are pushed straight back: they
// are registered live work and must not be lost.
func (ms *memState[N]) maybeSpill() {
	pool := ms.pool
	if ms.store == nil || pool.Tasks() <= ms.hard.Load() {
		return
	}
	ms.spillMu.Lock()
	defer ms.spillMu.Unlock()
	soft := ms.soft.Load()
	for {
		want := pool.Tasks() - soft
		if want <= 0 {
			return
		}
		if want > spillSegMax {
			want = spillSegMax
		}
		batch := pool.SpillBatch(int(want))
		if len(batch) == 0 {
			return
		}
		n, err := ms.store.write(batch)
		if err != nil {
			pool.PushBatch(batch)
			return
		}
		ms.onDisk.Add(int64(len(batch)))
		ms.spilledTotal.Add(int64(len(batch)))
		ms.spillBytes.Add(n)
	}
}

// readmit drains one spilled segment back into the pool when a worker
// finds the in-RAM frontier empty: the first task goes straight to the
// caller, the rest to the pool (waking parked siblings to claim them).
func (ms *memState[N]) readmit(wake func()) (Task[N], bool) {
	var zero Task[N]
	if ms.store == nil || ms.onDisk.Load() <= 0 {
		return zero, false
	}
	ts, ok := ms.store.takeSegment()
	if !ok {
		return zero, false
	}
	ms.onDisk.Add(-int64(len(ts)))
	if len(ts) > 1 {
		ms.pool.PushBatch(ts[1:])
		wake()
	}
	return ts[0], true
}

// close removes the locality's spill directory and everything in it.
// Safe to call multiple times and with segments still resident (a
// cancelled search abandons its frontier, spilled or not).
func (ms *memState[N]) close() {
	if ms.store != nil {
		ms.store.close()
	}
}

// spillStore owns one locality's spill segments: each spill batch
// becomes one file under a directory created by os.MkdirTemp on first
// use and removed wholesale by close. Segments are process-local —
// written and read back by the same locality — so only the node bytes
// go to disk; each task's supervision family pointer (in-memory state
// that must not be severed) is retained alongside the segment record.
type spillStore[N any] struct {
	mu     sync.Mutex
	base   string // Config.SpillDir; "" = os.TempDir()
	codec  Codec[N]
	dir    string
	seq    int
	segs   []spillSeg
	closed bool
}

type spillSeg struct {
	path string
	n    int
	fams []*family
}

// write encodes one batch into a new segment file, LIFO-stacked for
// takeSegment. Returns the bytes written.
func (st *spillStore[N]) write(ts []Task[N]) (int64, error) {
	var buf []byte
	var scratch [binary.MaxVarintLen64]byte
	fams := make([]*family, len(ts))
	for i, t := range ts {
		fams[i] = t.fam
		nb, err := st.codec.EncodeTo(nil, t.Node)
		if err != nil {
			return 0, err
		}
		buf = append(buf, scratch[:binary.PutUvarint(scratch[:], uint64(len(nb)))]...)
		buf = append(buf, nb...)
		buf = append(buf, scratch[:binary.PutUvarint(scratch[:], uint64(t.Depth))]...)
		pr := t.Prio
		if pr < 0 {
			pr = 0
		}
		buf = append(buf, scratch[:binary.PutUvarint(scratch[:], uint64(pr))]...)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, fmt.Errorf("core: spill store closed")
	}
	if st.dir == "" {
		dir, err := os.MkdirTemp(st.base, "yewpar-spill-*")
		if err != nil {
			return 0, err
		}
		st.dir = dir
	}
	path := filepath.Join(st.dir, fmt.Sprintf("seg-%06d", st.seq))
	st.seq++
	if err := os.WriteFile(path, buf, 0o600); err != nil {
		return 0, err
	}
	st.segs = append(st.segs, spillSeg{path: path, n: len(ts), fams: fams})
	return int64(len(buf)), nil
}

// takeSegment pops the most recent segment, decodes its tasks, and
// deletes the file. A segment that cannot be read back holds registered
// live tasks that exist nowhere else, so corruption is unrecoverable —
// the same contract as decoding a stolen task.
func (st *spillStore[N]) takeSegment() ([]Task[N], bool) {
	st.mu.Lock()
	if st.closed || len(st.segs) == 0 {
		st.mu.Unlock()
		return nil, false
	}
	seg := st.segs[len(st.segs)-1]
	st.segs = st.segs[:len(st.segs)-1]
	st.mu.Unlock()

	buf, err := os.ReadFile(seg.path)
	if err != nil {
		panic(fmt.Sprintf("core: reading spill segment: %v", err))
	}
	os.Remove(seg.path)
	ts := make([]Task[N], 0, seg.n)
	for i := 0; i < seg.n; i++ {
		nlen, k := binary.Uvarint(buf)
		if k <= 0 || uint64(len(buf)-k) < nlen {
			panic("core: corrupt spill segment")
		}
		buf = buf[k:]
		node, err := st.codec.Decode(buf[:nlen:nlen])
		if err != nil {
			panic(fmt.Sprintf("core: decoding spilled task: %v", err))
		}
		buf = buf[nlen:]
		depth, k := binary.Uvarint(buf)
		if k <= 0 {
			panic("core: corrupt spill segment")
		}
		buf = buf[k:]
		prio, k := binary.Uvarint(buf)
		if k <= 0 {
			panic("core: corrupt spill segment")
		}
		buf = buf[k:]
		ts = append(ts, Task[N]{Node: node, Depth: int(depth), Prio: int32(prio), fam: seg.fams[i]})
	}
	return ts, true
}

// close removes the segment directory. Idempotent.
func (st *spillStore[N]) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	st.segs = nil
	if st.dir != "" {
		os.RemoveAll(st.dir)
		st.dir = ""
	}
}
