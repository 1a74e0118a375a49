package fast

import (
	"context"

	"repro/internal/dual"
	"repro/internal/fptas"
	"repro/internal/knapsack"
	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/shelves"
)

// Scratch holds the reusable per-call state of the fast (3/2+ε)
// schedulers (the scratch-reuse discipline of internal/arena): the
// estimator's buffers, the shelf and knapsack scratches shared by Alg1
// and Alg3 (only one algorithm runs per call), Alg3's item-typing
// buffers, and the reusable dual-algorithm structs handed to
// dual.SearchCtx. A warm Scratch makes a whole ScheduleX run
// allocation-free in the steady state (map-bucket reuse permitting);
// the produced schedule is then owned by the scratch and valid until
// its next use — Clone to keep it. The zero value is ready; a Scratch
// must not be shared between concurrent calls.
type Scratch struct {
	LT      lt.Scratch
	Shelves shelves.Scratch
	Knap    knapsack.Scratch

	// Reusable dual-algorithm values: handing &sc.a1 (etc.) to
	// dual.SearchCtx avoids a heap allocation per Schedule call.
	a1 Alg1
	a3 Alg3
	cv Conv
	cw convWide
	fp fptas.Dual
	// fpSched backs the regime dual's schedule double buffer; its LT
	// field is unused (estimation runs through sc.LT).
	fpSched fptas.Scratch

	// convWide's schedule double buffer and candidate processor grid
	// (rebuilt only when the machine size changes).
	cwSched schedule.DoubleBuffer
	cwCands []int
	cwM     int

	// Build output, reused across probes.
	buildRes shelves.Result

	// Alg1/Alg3 per-Try buffers.
	shelf1 []int
	items  []knapsack.Item
	comp   []bool

	// Alg3 item typing (§4.3.1): the type table and the flat
	// job-by-type buckets (a counting sort, so no per-type slices).
	// The rounding grids are closed-form knapsack.GeomGrid values and
	// need no buffers.
	typeOf     map[typeKey]int32
	types      []knapsack.Type
	typeIdx    []int32 // type of part.Opt[k]
	typeOff    []int32 // running offset per type
	jobsByType []int32 // Opt jobs grouped by type
}

// variant selects the knapsack-regime dual of search.
type variant uint8

const (
	variantAlg1 variant = iota
	variantAlg3
	variantLinear
)

// search is the shared body of ScheduleAlg1, ScheduleAlg3 and
// ScheduleLinear: the Ludwig–Tiwari estimate, then the dual search
// with eps split evenly between the dual factor and the search slack.
// The dual depends on the regime, exactly as prescribed at the end of
// §4.2.5: the knapsack-based dual v when m < 16n, and the FPTAS dual
// with ε = 1/2 (a 3/2-dual) when m ≥ 16n — the knapsack parameter
// bounds (βmax = m = O(n)) need m = O(n), and for larger m the simple
// FPTAS is both valid and faster. The chosen struct lives in the
// scratch, so the interface conversion allocates nothing.
//
// Every buffer comes from sc; the returned schedule is then owned by
// the scratch (valid until its next use). A nil scratch uses fresh
// buffers.
//sched:owns-result
func search(ctx context.Context, in *moldable.Instance, eps float64, sc *Scratch, v variant) (*schedule.Schedule, dual.Report, error) {
	if err := scherr.CheckEps("fast", eps); err != nil {
		return nil, dual.Report{}, err
	}
	if sc == nil {
		sc = &Scratch{}
	}
	est := lt.EstimateScratch(in, &sc.LT)
	var algo dual.Algorithm
	switch {
	case in.M >= 16*in.N():
		sc.fp = fptas.Dual{In: in, Eps: 0.5, Scratch: &sc.fpSched}
		algo = &sc.fp
	case v == variantAlg1:
		sc.a1 = Alg1{In: in, Eps: eps / 2, Scratch: sc}
		algo = &sc.a1
	default:
		sc.a3 = Alg3{In: in, Eps: eps / 2, Buckets: v == variantLinear, Scratch: sc}
		algo = &sc.a3
	}
	return dual.SearchCtx(ctx, algo, est.Omega, eps/2)
}
