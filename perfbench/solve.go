package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"os"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dual"
	"repro/internal/fast"
	"repro/internal/fptas"
	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/service"
)

// eps is the accuracy every workload runs at: repro's default.
const eps = 0.1

// solveOp is one in-process Client.Schedule call and its outcome.
type solveOp struct {
	in  *moldable.Instance
	opt moldable.Time // planted OPT, 0 when unknown
	s   *schedule.Schedule
	rep *core.Report
	err error
}

// solve drives repro.Client.Schedule from one in-process caller in a
// closed loop, on distinct instances, so every op misses the result
// cache and schedules.
type solve struct {
	gen    func(seed, i uint64, sz size) (*moldable.Instance, moldable.Time)
	warmup int // warm-up ops per setup
	chunk  int // ops per round
	seed   uint64
	tiny   bool

	c    *repro.Client
	next uint64 // index of the next measured instance
	ops  []solveOp

	tr *solveTrace // non-nil in traced rounds
}

func newSolve(gen func(uint64, uint64, size) (*moldable.Instance, moldable.Time), warmup, chunk int, seed uint64, tiny bool) *solve {
	return &solve{gen: gen, warmup: warmup, chunk: chunk, seed: seed, tiny: tiny}
}

func (w *solve) setup(ctx context.Context) error {
	w.next = 0
	w.c = repro.New()
	for i := range w.warmup {
		in, _ := w.gen(subSeed(w.seed, streamWarmup), uint64(i), size{tiny: w.tiny, largest: true})
		if _, _, err := w.c.Schedule(ctx, in); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

func (w *solve) roundSize() int { return w.chunk }

func (w *solve) prepare(n int) {
	w.ops = w.ops[:0]
	for range n {
		in, opt := w.gen(subSeed(w.seed, streamMeasured), w.next, size{tiny: w.tiny})
		w.ops = append(w.ops, solveOp{in: in, opt: opt})
		w.next++
	}
}

func (w *solve) run(ctx context.Context) []float64 {
	lat := make([]float64, 0, len(w.ops))
	for i := range w.ops {
		op := &w.ops[i]
		var sched0, probes0 int64
		if w.tr != nil {
			sched0, probes0 = obs.SchedLatency.Sum(), obs.SchedProbes.Value()
		}
		t0 := time.Now()
		op.s, op.rep, op.err = w.c.Schedule(ctx, op.in)
		d := time.Since(t0)
		lat = append(lat, ms(d))
		if w.tr != nil {
			w.tr.real(d, obs.SchedLatency.Sum()-sched0, obs.SchedProbes.Value()-probes0)
			if mk := w.tr.replay(ctx, op.in); op.err == nil && mk != op.s.Makespan() {
				w.tr.mismatches++
			}
		}
	}
	return lat
}

func (w *solve) check(acc *checker) {
	for i := range w.ops {
		op := &w.ops[i]
		if op.err != nil {
			acc.fail("schedule: %v", op.err)
			continue
		}
		if err := schedule.Validate(op.in, op.s, schedule.Options{}); err != nil {
			acc.fail("invalid schedule: %v", err)
			continue
		}
		mk := op.s.Makespan()
		if op.opt > 0 {
			// Theorem 3: makespan ≤ (3/2+ε)·OPT against the planted optimum.
			acc.bound(mk, (1.5+eps)*op.opt, mk/op.opt)
		} else {
			// FPTAS: makespan ≤ (1+ε)·OPT ≤ (1+ε)·2ω.
			acc.bound(mk, (1+eps)*2*op.rep.Omega, mk/op.rep.LowerBound)
		}
	}
	w.ops = w.ops[:0]
}

func (w *solve) stats() service.Stats { return w.c.Stats() }

func (w *solve) startTrace() { w.tr = &solveTrace{seed: maphash.MakeSeed()} }

func (w *solve) layers(m map[string]metric, c0, c1 counters) {
	w.tr.layers(m, c0.st, c1.st)
	if w.tr.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d replays disagree with the real op; the per-layer times may not describe it\n",
			w.tr.mismatches, w.tr.ops)
	}
}

func (w *solve) close() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
}

// timedDual wraps a dual algorithm and times each Try.
type timedDual struct {
	inner          dual.Algorithm
	tries, accepts int
	busy           time.Duration
}

func (t *timedDual) Try(d moldable.Time) (*schedule.Schedule, bool) {
	t0 := time.Now()
	s, ok := t.inner.Try(d)
	t.busy += time.Since(t0)
	t.tries++
	if ok {
		t.accepts++
	}
	return s, ok
}

func (t *timedDual) Guarantee() float64 { return t.inner.Guarantee() }

// solveTrace holds a traced phase's per-layer figures for the solve
// workloads. Each traced op is the real Client.Schedule call, whose
// end-to-end time and obs counters are read around it, followed by a
// replay of the same pipeline from the layers' public functions, each
// call timed on its own: hash, memoize, estimate, dual search (Try
// timed by timedDual), clone. The replay mirrors
// service → core.ScheduleScratchCtx → fast/fptas for Auto at ε=0.1.
type solveTrace struct {
	seed maphash.Seed
	lts  lt.Scratch
	fs   fast.Scratch
	fps  fptas.Scratch

	ops                     int
	opTime                  time.Duration
	schedNS, probes         int64
	hash, memo, est, clones time.Duration
	alg3, fp                timedDual
	mismatches              int // replays whose makespan differs from the real op's
}

func (t *solveTrace) real(d time.Duration, schedNS, probes int64) {
	t.ops++
	t.opTime += d
	t.schedNS += schedNS
	t.probes += probes
}

// replay runs the op's pipeline layer by layer and returns the
// makespan it reaches (0 if the search failed).
func (t *solveTrace) replay(ctx context.Context, in *moldable.Instance) moldable.Time {
	t0 := time.Now()
	service.HashInstance(t.seed, in)
	t1 := time.Now()
	mi, _ := moldable.MemoizeInstance(in)
	t2 := time.Now()
	est := lt.EstimateScratch(mi, &t.lts)
	t3 := time.Now()
	t.hash += t1.Sub(t0)
	t.memo += t2.Sub(t1)
	t.est += t3.Sub(t2)

	td := &t.fp
	if fptas.Applicable(mi.N(), mi.M, eps/2) {
		td.inner = &fptas.Dual{In: mi, Eps: eps / 2, Scratch: &t.fps}
	} else {
		// The workloads keep m < 16n, so Linear runs its Alg3 dual.
		td = &t.alg3
		td.inner = &fast.Alg3{In: mi, Eps: eps / 2, Buckets: true, Scratch: &t.fs}
	}
	s, _, err := dual.SearchCtx(ctx, td, est.Omega, eps/2)
	if err != nil {
		return 0
	}
	t4 := time.Now()
	c := s.Clone()
	t.clones += time.Since(t4)
	return c.Makespan()
}

// layers reports the per-layer metrics of the traced phase.
func (t *solveTrace) layers(m map[string]metric, st0, st1 service.Stats) {
	n := float64(t.ops)
	opUS := us(t.opTime) / n
	schedUS := float64(t.schedNS) / 1e3 / n
	m["fast.try_ms"] = metric{share(ms(t.alg3.busy), float64(t.alg3.tries)), "ms"}
	m["fptas.try_ms"] = metric{share(ms(t.fp.busy), float64(t.fp.tries)), "ms"}
	m["dual.probes_per_op"] = metric{float64(t.probes) / n, "count"}
	m["dual.accept_share"] = metric{share(float64(t.alg3.accepts+t.fp.accepts), float64(t.alg3.tries+t.fp.tries)), "share"}
	m["lt.estimate_ms"] = metric{ms(t.est) / n, "ms"}
	m["moldable.memo_build_us"] = metric{us(t.memo) / n, "us"}
	hits, misses := st1.OracleHits-st0.OracleHits, st1.OracleMisses-st0.OracleMisses
	m["moldable.memo_hit_share"] = metric{share(float64(hits), float64(hits+misses)), "share"}
	m["service.hash_us"] = metric{us(t.hash) / n, "us"}
	m["schedule.clone_us"] = metric{us(t.clones) / n, "us"}
	m["obs.sched_us"] = metric{schedUS, "us"}
	m["service.overhead_us"] = metric{opUS - schedUS, "us"}
	m["service.result_hit_share"] = metric{float64(st1.ResultHits-st0.ResultHits) / n, "share"}
	attributed := t.hash + t.memo + t.est + t.alg3.busy + t.fp.busy + t.clones
	m["trace.unattributed_share"] = metric{1 - float64(attributed)/float64(t.opTime), "share"}
}
