package parallel

import (
	"sync"
	"sync/atomic"
)

// Pool is a sharded work-queue executor: n worker goroutines, each
// owning one bounded queue (shard). Tasks are routed to a shard by
// caller-supplied affinity key, so tasks sharing a key run on one
// worker, in submission order. internal/service keys by canonical
// instance hash, which turns concurrent duplicate submissions into a
// compute-then-cache-hit sequence instead of a stampede, and keeps a
// memoized instance's oracle cache on one worker's timeline.
//
// Submit blocks when the target shard's queue is full (backpressure).
// Tasks must not Submit to the pool they run on — with every worker
// blocked on a full sibling queue that deadlocks; task-spawned work
// belongs at the caller's level.
type Pool struct {
	shards  []chan func()
	workers sync.WaitGroup
	// In-flight accounting uses a condition variable, not a WaitGroup:
	// Submit and Drain may race from different goroutines with the
	// counter passing through zero, which WaitGroup forbids.
	mu       sync.Mutex
	cond     sync.Cond
	inflight int64 //sched:guardedby mu
	closed   atomic.Bool
}

// queueCap bounds each shard's queue; beyond it Submit blocks.
const queueCap = 256

// NewPool starts a pool of workers one-queue-per-worker shards
// (workers ≤ 0 selects GOMAXPROCS). Close must be called to release
// the workers.
func NewPool(workers int) *Pool {
	w := Workers(workers)
	p := &Pool{shards: make([]chan func(), w)}
	p.cond.L = &p.mu
	for i := range p.shards {
		ch := make(chan func(), queueCap)
		p.shards[i] = ch
		p.workers.Add(1)
		go func() {
			defer p.workers.Done()
			for fn := range ch {
				fn()
			}
		}()
	}
	return p
}

// Submit enqueues fn on the shard selected by key, blocking if that
// queue is full. fn runs on the shard's worker; Submit does not wait
// for it. Submit must not be called concurrently with or after Close.
func (p *Pool) Submit(key uint64, fn func()) {
	if p.closed.Load() {
		panic("parallel: Submit on closed Pool")
	}
	p.mu.Lock()
	p.inflight++
	p.mu.Unlock()
	p.shards[p.shard(key)] <- func() {
		defer func() {
			p.mu.Lock()
			p.inflight--
			if p.inflight == 0 {
				p.cond.Broadcast()
			}
			p.mu.Unlock()
		}()
		fn()
	}
}

// shard maps an affinity key to a shard index (Fibonacci hashing, so
// dense sequential keys still spread evenly).
func (p *Pool) shard(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) % uint64(len(p.shards)))
}

// Size returns the number of workers (= shards).
func (p *Pool) Size() int { return len(p.shards) }

// ShardOf returns the worker index that tasks submitted with key run
// on. Because each shard is owned by exactly one worker goroutine,
// per-worker state indexed by ShardOf(key) — such as the scheduling
// scratch buffers internal/service pools — is accessed race-free by
// tasks keyed to it.
func (p *Pool) ShardOf(key uint64) int { return p.shard(key) }

// Drain blocks until every task submitted so far has completed. Other
// goroutines may keep submitting; their tasks extend the wait.
func (p *Pool) Drain() {
	p.mu.Lock()
	for p.inflight > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Close waits for in-flight tasks and stops the workers. Submitting
// after Close panics.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	p.Drain()
	for _, ch := range p.shards {
		close(ch)
	}
	p.workers.Wait()
}
