// Package parallel provides the sharded work-queue Pool that the
// serving layer (internal/service) runs scheduling requests on
// (DESIGN.md §5; engineering substrate, not part of the paper — Jansen
// & Land's algorithms are sequential). Workers are long-lived, queues
// are bounded, and tasks are routed by affinity key; a task is an
// entire Schedule call, so affinity and caching matter more than the
// channel round-trip each task costs.
//
// The scheduling algorithms themselves stay sequential: their inner
// loops are dominated by O(log m) binary searches that do not amortize
// goroutine overhead, while independent scheduling requests are
// embarrassingly parallel.
package parallel

import "runtime"

// Workers returns the effective worker count: w if positive, otherwise
// GOMAXPROCS.
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}
