package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEverything(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sum atomic.Int64
	const n = 10_000
	for i := 1; i <= n; i++ {
		i := i
		p.Submit(uint64(i), func() { sum.Add(int64(i)) })
	}
	p.Drain()
	if got, want := sum.Load(), int64(n*(n+1)/2); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestPoolKeyAffinity(t *testing.T) {
	// All tasks sharing one key must run sequentially (single shard
	// queue), so an unsynchronized counter is safe and ordered.
	p := NewPool(8)
	defer p.Close()
	seq := make([]int, 0, 500)
	for i := 0; i < 500; i++ {
		i := i
		p.Submit(42, func() { seq = append(seq, i) })
	}
	p.Drain()
	for i, v := range seq {
		if v != i {
			t.Fatalf("same-key tasks ran out of order: seq[%d] = %d", i, v)
		}
	}
}

// TestPoolConcurrentBatches has many goroutines each submit a batch of
// tasks and drain at once, so the in-flight counter passes through
// zero while other goroutines wait on it; run with -race (CI does).
func TestPoolConcurrentBatches(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Submit(uint64(g*200+i), func() { total.Add(1) })
			}
			p.Drain()
		}(g)
	}
	wg.Wait()
	p.Drain()
	if got := total.Load(); got != 1200 {
		t.Fatalf("ran %d tasks, want 1200", got)
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Submit(1, func() {})
	p.Close()
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Close must panic")
		}
	}()
	p.Submit(2, func() {})
}
