package kernelc

// Work-stealing shard scheduler for the parallel loop tier. A
// qualifying loop's iteration space is cut into contiguous chunks
// (chunksPerWorker per worker, so early-finishing lanes find spare
// work); each lane owns a contiguous range of chunk indexes packed into
// one atomic word and pops from its low end, while thieves pop from the
// high end — the two CAS directions only contend on the last chunk of a
// range. Chunk results (reduction partials, errors, iteration tallies)
// are indexed by chunk, never by lane, so the commit order is
// deterministic regardless of who ran what.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunksPerWorker balances steal granularity against per-chunk frame
// setup; 4 keeps the tail imbalance under a quarter of a lane's share.
const chunksPerWorker = 4

// parMinIters gates the parallel driver: below this trip count the
// per-lane frame checkout costs more than the loop body. Variable so
// the differential tests can force tiny loops through the sharded path.
var parMinIters int64 = 16

// Scheduler counters behind obs gauges kernelc.par.* — see
// docs/OBSERVABILITY.md.
var (
	parEligible  atomic.Int64 // loops compiled with a parallel plan
	parRuns      atomic.Int64 // loop executions that ran sharded
	parFallbacks atomic.Int64 // runtime probe rejections (ran serial)
	parChunks    atomic.Int64 // chunks executed across all sharded runs
	parSteals    atomic.Int64 // chunks executed by a non-owner lane
)

// ParStats returns cumulative parallel-tier counters since process
// start (or the last ResetParStats): statically eligible loops,
// sharded executions, runtime serial fallbacks, chunks run, and chunks
// stolen.
func ParStats() (eligible, runs, fallbacks, chunks, steals int64) {
	return parEligible.Load(), parRuns.Load(), parFallbacks.Load(),
		parChunks.Load(), parSteals.Load()
}

// ResetParStats zeroes the parallel-tier counters (tests).
func ResetParStats() {
	parEligible.Store(0)
	parRuns.Store(0)
	parFallbacks.Store(0)
	parChunks.Store(0)
	parSteals.Store(0)
}

// shardPlan cuts iters iterations across workers lanes: chunks of size
// chunkSize, with lane w owning chunk indexes [owners[w], owners[w+1]).
// It guarantees 1 ≤ chunkSize, chunks ≤ workers*chunksPerWorker, every
// iteration lands in exactly one chunk, and the owner ranges partition
// [0, chunks). The fuzz target FuzzShardBounds holds it to that
// contract.
func shardPlan(iters int64, workers int) (chunkSize int64, chunks int, owners []int) {
	if workers < 1 {
		workers = 1
	}
	target := int64(workers * chunksPerWorker)
	chunkSize = (iters + target - 1) / target
	if chunkSize < 1 {
		chunkSize = 1
	}
	chunks = int((iters + chunkSize - 1) / chunkSize)
	owners = make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		owners[w] = w * chunks / workers
	}
	return chunkSize, chunks, owners
}

// chunkRange is [lo, hi) chunk indexes packed into one atomic word
// (lo in the high half). Ranges are far below 2^31 chunks, so the
// packing never overflows.
type chunkRange struct{ v atomic.Uint64 }

func (r *chunkRange) init(lo, hi int) {
	r.v.Store(uint64(lo)<<32 | uint64(hi))
}

// popOwn takes the lowest remaining chunk (owner side).
func (r *chunkRange) popOwn() (int, bool) {
	for {
		cur := r.v.Load()
		lo, hi := int(cur>>32), int(cur&0xffffffff)
		if lo >= hi {
			return 0, false
		}
		if r.v.CompareAndSwap(cur, uint64(lo+1)<<32|uint64(hi)) {
			return lo, true
		}
	}
}

// popSteal takes the highest remaining chunk (thief side).
func (r *chunkRange) popSteal() (int, bool) {
	for {
		cur := r.v.Load()
		lo, hi := int(cur>>32), int(cur&0xffffffff)
		if lo >= hi {
			return 0, false
		}
		if r.v.CompareAndSwap(cur, uint64(lo)<<32|uint64(hi-1)) {
			return hi - 1, true
		}
	}
}

// nextChunk serves lane w: own range first, then steal round-robin
// from the other lanes.
func nextChunk(ranges []chunkRange, w int) (chunk int, stolen, ok bool) {
	if k, got := ranges[w].popOwn(); got {
		return k, false, true
	}
	for off := 1; off < len(ranges); off++ {
		if k, got := ranges[(w+off)%len(ranges)].popSteal(); got {
			return k, true, true
		}
	}
	return 0, false, false
}

// Lane goroutines are pooled for the process lifetime: a sharded loop
// execution is microseconds long, and spawning fresh goroutines per
// run showed up in profiles. Submissions that find every pooled worker
// busy spill to a fresh goroutine, so lanes never wait on each other
// and nested use cannot deadlock (worker machines run nested loops
// serially regardless).
var (
	lanePoolOnce sync.Once
	laneJobs     chan func()
)

func startLanePool() {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	laneJobs = make(chan func())
	for i := 0; i < n; i++ {
		go func() {
			for job := range laneJobs {
				job()
			}
		}()
	}
}

// dispatch runs job on a pooled lane goroutine, or a fresh one when
// the pool is saturated.
func dispatch(job func()) {
	lanePoolOnce.Do(startLanePool)
	select {
	case laneJobs <- job:
	default:
		go job()
	}
}
