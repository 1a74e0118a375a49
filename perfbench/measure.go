package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// sample is a process-wide reading taken between rounds, outside the
// timed region. Deltas of two samples give a phase's CPU, allocation
// and GC figures.
type sample struct {
	cpu      time.Duration // user+sys CPU of the whole process
	alloc    uint64        // cumulative heap bytes allocated (MemStats.TotalAlloc)
	gcCPU    float64       // runtime estimate of GC CPU seconds
	usedCPU  float64       // runtime estimate of non-idle CPU seconds
	gcCycles uint64        // completed GC cycles
}

var rtMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func takeSample() sample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	// ReadMemStats flushes the per-P allocation caches, so TotalAlloc is
	// exact and repeats for a deterministic op sequence.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs := make([]metrics.Sample, len(rtMetrics))
	for i, name := range rtMetrics {
		rs[i].Name = name
	}
	metrics.Read(rs)
	return sample{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		gcCPU:    rs[0].Value.Float64(),
		usedCPU:  rs[1].Value.Float64() - rs[2].Value.Float64(),
		gcCycles: rs[3].Value.Uint64(),
	}
}

// phase accumulates one measured phase of a run: per-op latencies and
// the process deltas of its timed rounds.
type phase struct {
	attempted int       // ops run, failed ones included
	lat       []float64 // per-op latency of the ops that completed, ms
	rates     []float64 // per-round throughput, ops/s
	wall      time.Duration
	cpu       time.Duration
	alloc     uint64
	gcCPU     float64
	usedCPU   float64
	gcCycles  uint64
}

func (p *phase) add(a, b sample, wall time.Duration, attempted int, lat []float64) {
	p.attempted += attempted
	p.lat = append(p.lat, lat...)
	p.rates = append(p.rates, float64(len(lat))/wall.Seconds())
	p.wall += wall
	p.cpu += b.cpu - a.cpu
	p.alloc += b.alloc - a.alloc
	p.gcCPU += b.gcCPU - a.gcCPU
	p.usedCPU += b.usedCPU - a.usedCPU
	p.gcCycles += b.gcCycles - a.gcCycles
}

func (p *phase) ops() int { return len(p.lat) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// share is num/den, or 0 when den is 0 (a layer with no work).
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
