package online

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/scherr"
)

func refTrace(t testing.TB, n int, process Process, seed uint64) []Arrival {
	t.Helper()
	trace, err := Generate(TraceConfig{
		N: n, Seed: seed, Process: process, Rate: 4,
		Jobs: moldable.GenConfig{MinWork: 1, MaxWork: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// checkLog verifies the structural invariants every policy must
// satisfy: time-ordered events, exact capacity accounting (the Free
// field of each event re-derivable from starts and finishes), every
// admitted job started exactly once after its arrival and finished
// exactly once after its start.
func checkLog(t *testing.T, m int, trace []Arrival, log []Event) {
	t.Helper()
	free := m
	last := moldable.Time(0)
	started := make(map[int]moldable.Time)
	finished := make(map[int]bool)
	arrived := make(map[int]moldable.Time)
	for i, e := range log {
		if e.T < last {
			t.Fatalf("event %d at t=%g before previous t=%g", i, e.T, last)
		}
		last = e.T
		switch e.Kind {
		case EvArrive:
			arrived[e.Job] = e.T
		case EvStart:
			if _, ok := arrived[e.Job]; !ok {
				t.Fatalf("event %d: job %d started before arriving", i, e.Job)
			}
			if _, dup := started[e.Job]; dup {
				t.Fatalf("event %d: job %d started twice", i, e.Job)
			}
			if e.T < arrived[e.Job] {
				t.Fatalf("event %d: job %d started at %g before arrival %g", i, e.Job, e.T, arrived[e.Job])
			}
			free -= e.Procs
			if free < 0 {
				t.Fatalf("event %d: machine oversubscribed (free=%d)", i, free)
			}
			started[e.Job] = e.T
		case EvFinish:
			st, ok := started[e.Job]
			if !ok || finished[e.Job] {
				t.Fatalf("event %d: job %d finish without a unique start", i, e.Job)
			}
			if e.T < st {
				t.Fatalf("event %d: job %d finished at %g before start %g", i, e.Job, e.T, st)
			}
			free += e.Procs
			finished[e.Job] = true
		}
		if e.Kind == EvStart || e.Kind == EvFinish || e.Kind == EvArrive {
			if e.Free != free {
				t.Fatalf("event %d (%v): Free=%d, accounting says %d", i, e.Kind, e.Free, free)
			}
		}
	}
	if len(arrived) != len(trace) {
		t.Fatalf("admitted %d of %d arrivals", len(arrived), len(trace))
	}
	if len(finished) != len(trace) {
		t.Fatalf("finished %d of %d jobs", len(finished), len(trace))
	}
	if free != m {
		t.Fatalf("machine did not drain: free=%d of %d", free, m)
	}
}

// TestPoliciesRunTraces replays a mixed trace under every policy and
// checks the structural invariants plus metric consistency.
func TestPoliciesRunTraces(t *testing.T) {
	ctx := context.Background()
	trace := refTrace(t, 120, Poisson, 7)
	for _, pol := range Policies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{M: 48, Policy: pol, Eps: 0.25}
			log, met, err := Replay(ctx, cfg, trace)
			if err != nil {
				t.Fatal(err)
			}
			checkLog(t, cfg.M, trace, log)
			if met.Jobs != len(trace) || met.Started != len(trace) || met.Finished != len(trace) {
				t.Fatalf("metrics count jobs=%d started=%d finished=%d, want %d",
					met.Jobs, met.Started, met.Finished, len(trace))
			}
			if met.MeanFlow < met.MeanWait {
				t.Fatalf("mean flow %g < mean wait %g", met.MeanFlow, met.MeanWait)
			}
			if met.Makespan < met.LastArrival {
				t.Fatalf("makespan %g before last arrival %g", met.Makespan, met.LastArrival)
			}
			if met.Utilization <= 0 || met.Utilization > 1+1e-9 {
				t.Fatalf("utilization %g out of (0,1]", met.Utilization)
			}
			if pol == Greedy {
				if met.Replans == 0 {
					t.Fatal("greedy made no plans")
				}
			} else if met.Replans < 1 {
				t.Fatal("no replans recorded")
			}
			if pol == ReplanOnArrival && met.Replans != len(trace) {
				t.Fatalf("ReplanOnArrival: %d replans for %d arrivals", met.Replans, len(trace))
			}
		})
	}
}

// TestDeterminism: same trace + same config ⇒ byte-identical event logs,
// whether on a fresh runtime or a Reset-reused one.
func TestDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, process := range []Process{Poisson, Bursty} {
		trace := refTrace(t, 150, process, 42)
		for _, pol := range Policies() {
			cfg := Config{M: 32, Policy: pol, Eps: 0.25, EpochMin: 1}
			log1, met1, err := Replay(ctx, cfg, trace)
			if err != nil {
				t.Fatal(err)
			}
			log2, met2, err := Replay(ctx, cfg, trace)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(log1, log2) {
				t.Fatalf("%v/%v: two fresh replays diverged", process, pol)
			}
			if met1 != met2 {
				t.Fatalf("%v/%v: metrics diverged: %+v vs %+v", process, pol, met1, met2)
			}
			// Reset-reuse must not change behavior either (the warm path
			// the throughput benchmark runs).
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				log3, met3, err := ReplayOn(ctx, rt, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(log1, log3) || met1 != met3 {
					t.Fatalf("%v/%v pass %d: warm replay diverged from cold", process, pol, pass)
				}
				rt.Reset()
			}
		}
	}
}

// TestRegimeFallback pins the fallback boundary: a runtime pinned to
// the Theorem-2 FPTAS at m=32, ε=0.5 is inside the m ≥ 16n/ε regime
// for a single pending job (needs m ≥ 32) and outside it for two
// (needs 64). The two-job epoch must fall back — surfaced on the
// replan event — instead of erroring.
func TestRegimeFallback(t *testing.T) {
	ctx := context.Background()
	rt, err := New(Config{M: 32, Policy: ReplanOnEpoch, Algorithm: core.FPTAS, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Job 0 arrives alone: epoch closes immediately (EpochMin=0, idle
	// machine) with n=1 — in regime, no fallback.
	evs, err := rt.Arrive(ctx, Arrival{T: 0, Job: moldable.Sequential{T: 10}})
	if err != nil {
		t.Fatal(err)
	}
	rep := findReplan(t, evs)
	if rep.Fallback || rep.Algo != "fptas" {
		t.Fatalf("n=1 replan: algo=%q fallback=%v, want in-regime fptas", rep.Algo, rep.Fallback)
	}
	// Jobs 1 and 2 arrive while job 0 runs; the batch closes at its
	// finish with n=2 — out of regime, fallback engages.
	for _, tt := range []moldable.Time{1, 2} {
		if _, err := rt.Arrive(ctx, Arrival{T: tt, Job: moldable.Amdahl{Seq: 1, Par: 4}}); err != nil {
			t.Fatal(err)
		}
	}
	evs, err = rt.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rep = findReplan(t, evs)
	if !rep.Fallback {
		t.Fatalf("n=2 replan at m=32, ε=0.5 did not fall back (algo=%q)", rep.Algo)
	}
	if rep.Algo != "mrt" {
		t.Fatalf("fallback algo %q, want mrt", rep.Algo)
	}
	if rep.Pending != 2 {
		t.Fatalf("fallback replan pending=%d, want 2", rep.Pending)
	}
	if met := rt.Metrics(); met.Fallbacks != 1 || met.Finished != 3 {
		t.Fatalf("metrics fallbacks=%d finished=%d, want 1, 3", met.Fallbacks, met.Finished)
	}
}

// TestRegimeFallbackConv: a runtime pinned to the Conv algorithm on a
// machine below its m ≥ 40 floor (ISSUE 5: conv's compression classes
// are inert without at least one wide candidate) must fall back
// MRT → LT2 on every replan instead of erroring — the same
// scherr.RegimeError path the FPTAS fallback rides.
func TestRegimeFallbackConv(t *testing.T) {
	ctx := context.Background()
	rt, err := New(Config{M: 32, Policy: ReplanOnEpoch, Algorithm: core.Conv, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := rt.Arrive(ctx, Arrival{T: 0, Job: moldable.Sequential{T: 10}})
	if err != nil {
		t.Fatal(err)
	}
	rep := findReplan(t, evs)
	if !rep.Fallback || rep.Algo != "mrt" {
		t.Fatalf("conv at m=32: algo=%q fallback=%v, want mrt fallback", rep.Algo, rep.Fallback)
	}
	if _, err := rt.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if met := rt.Metrics(); met.Fallbacks != 1 || met.Finished != 1 {
		t.Fatalf("metrics fallbacks=%d finished=%d, want 1, 1", met.Fallbacks, met.Finished)
	}

	// At m ≥ 40 the pinned algorithm runs in its own regime.
	rt2, err := New(Config{M: 64, Policy: ReplanOnEpoch, Algorithm: core.Conv, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	evs, err = rt2.Arrive(ctx, Arrival{T: 0, Job: moldable.Sequential{T: 10}})
	if err != nil {
		t.Fatal(err)
	}
	rep = findReplan(t, evs)
	if rep.Fallback || rep.Algo != "conv" {
		t.Fatalf("conv at m=64: algo=%q fallback=%v, want in-regime conv", rep.Algo, rep.Fallback)
	}
	if _, err := rt2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func findReplan(t *testing.T, evs []Event) Event {
	t.Helper()
	for _, e := range evs {
		if e.Kind == EvReplan {
			return e
		}
	}
	t.Fatal("no replan event in batch")
	return Event{}
}

// TestEpochDoublingRule: with EpochMin=4 and EpochGrow=2, epoch k may
// not close before 4·2^k after it opened — replan timestamps must
// respect the growing minimum even when the machine is idle earlier.
func TestEpochDoublingRule(t *testing.T) {
	ctx := context.Background()
	rt, err := New(Config{M: 8, Policy: ReplanOnEpoch, Eps: 0.25, EpochMin: 4, EpochGrow: 2})
	if err != nil {
		t.Fatal(err)
	}
	var replans []moldable.Time
	collect := func(evs []Event) {
		for _, e := range evs {
			if e.Kind == EvReplan {
				replans = append(replans, e.T)
			}
		}
	}
	// Tiny jobs in two waves: the machine is idle almost immediately
	// after each, so closures are driven by the doubling rule alone —
	// wave 1 becomes epoch 0 (closes no earlier than t=4), wave 2
	// epoch 1 (no earlier than 8 after epoch 0 closed).
	for _, at := range []moldable.Time{0, 0.25, 0.5, 0.75, 5, 6} {
		evs, err := rt.Arrive(ctx, Arrival{T: at, Job: moldable.Sequential{T: 0.01}})
		if err != nil {
			t.Fatal(err)
		}
		collect(evs)
	}
	evs, err := rt.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	collect(evs)
	if len(replans) < 2 {
		t.Fatalf("want ≥ 2 epochs, got replans at %v", replans)
	}
	if replans[0] < 4 {
		t.Fatalf("epoch 0 closed at %g, before EpochMin=4", replans[0])
	}
	if replans[1] < replans[0]+8 {
		t.Fatalf("epoch 1 closed at %g, before %g+8 (doubled minimum)", replans[1], replans[0])
	}
}

// TestReplanZeroAlloc guards the acceptance criterion that epoch
// replans reuse the pooled core.Scratch: a warm runtime replaying a
// trace — replans, dispatch, completions, metrics — must not allocate.
func TestReplanZeroAlloc(t *testing.T) {
	ctx := context.Background()
	trace := refTrace(t, 256, Poisson, 11)
	rt, err := New(Config{M: 256, Policy: ReplanOnEpoch, Algorithm: core.Linear, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	replay := func() {
		rt.Reset()
		for _, a := range trace {
			if _, err := rt.Arrive(ctx, a); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		if met := rt.Metrics(); met.Finished != len(trace) {
			t.Fatalf("finished %d of %d", met.Finished, len(trace))
		}
	}
	replay() // warm every buffer to its working size
	replay()
	if allocs := testing.AllocsPerRun(5, replay); allocs != 0 {
		t.Fatalf("warm replay allocated %.1f times per run, want 0", allocs)
	}
}

// TestBadEpsRejected: every ε outside (0,1] — NaN and the infinities
// included, which a negated range test `eps <= 0 || eps > 1` lets
// through as NaN — is refused with ErrBadEps by core.Schedule for
// every algorithm, by core.PTAS, and by online.New.
func TestBadEpsRejected(t *testing.T) {
	ctx := context.Background()
	in := moldable.Random(moldable.GenConfig{N: 16, M: 64, Seed: 1})
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1 + 1e-9} {
		for _, a := range core.Algorithms() {
			if _, _, err := core.Schedule(ctx, in, core.Options{Algorithm: a, Eps: eps}, nil); !errors.Is(err, scherr.ErrBadEps) {
				t.Errorf("core.Schedule(%v, eps=%v) = %v, want ErrBadEps", a, eps, err)
			}
		}
		if _, _, err := core.PTAS(ctx, in, eps); !errors.Is(err, scherr.ErrBadEps) {
			t.Errorf("core.PTAS(eps=%v) = %v, want ErrBadEps", eps, err)
		}
		if _, err := New(Config{M: 64, Eps: eps}); !errors.Is(err, scherr.ErrBadEps) {
			t.Errorf("online.New(eps=%v) = %v, want ErrBadEps", eps, err)
		}
	}
}

// TestStreamErrors covers the runtime's refusal paths.
func TestStreamErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := New(Config{M: 0}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := New(Config{M: 4, Eps: 2}); !errors.Is(err, scherr.ErrBadEps) {
		t.Errorf("eps=2 error %v, want ErrBadEps", err)
	}
	if _, err := New(Config{M: 4, EpochGrow: 0.5}); err == nil {
		t.Error("shrinking epochs accepted")
	}
	if _, err := New(Config{M: 4, Policy: Policy(99)}); err == nil {
		t.Error("unknown policy accepted")
	}

	rt, err := New(Config{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Arrive(ctx, Arrival{T: 5, Job: moldable.Sequential{T: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Arrive(ctx, Arrival{T: 4, Job: moldable.Sequential{T: 1}}); err == nil {
		t.Error("out-of-order arrival accepted")
	}
	// The ordering violation is sticky: the stream is corrupt.
	if _, err := rt.Arrive(ctx, Arrival{T: 6, Job: moldable.Sequential{T: 1}}); err == nil {
		t.Error("arrival accepted after a stream failure")
	}

	rt2, _ := New(Config{M: 4})
	if _, err := rt2.Arrive(ctx, Arrival{T: 0, Job: nil}); err == nil {
		t.Error("nil job accepted")
	}

	rt3, _ := New(Config{M: 4})
	if _, err := rt3.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := rt3.Arrive(ctx, Arrival{T: 0, Job: moldable.Sequential{T: 1}}); err == nil {
		t.Error("arrival after drain accepted")
	}
	if _, err := rt3.Drain(ctx); err == nil {
		t.Error("double drain accepted")
	}

	// Cancellation is NOT sticky: a canceled Drain resumes under a live
	// context with nothing lost.
	rt4, _ := New(Config{M: 2})
	for i := 0; i < 6; i++ {
		if _, err := rt4.Arrive(ctx, Arrival{T: moldable.Time(i), Job: moldable.Amdahl{Seq: 1, Par: 8}}); err != nil {
			t.Fatal(err)
		}
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := rt4.Drain(canceled); !errors.Is(err, scherr.ErrCanceled) {
		t.Fatalf("canceled drain error %v, want ErrCanceled", err)
	}
	if _, err := rt4.Drain(ctx); err != nil {
		t.Fatalf("drain after canceled drain: %v", err)
	}
	if met := rt4.Metrics(); met.Finished != 6 {
		t.Fatalf("resumed drain finished %d of 6", met.Finished)
	}
}

// cancelAfterJob is a monotone (Amdahl-shaped) job whose oracle
// cancels a context after a fixed number of calls — the only way to
// land a cancellation deterministically *inside* a replan's dual
// search rather than between runtime calls.
type cancelAfterJob struct {
	calls  *int
	after  int
	cancel context.CancelFunc
}

func (c cancelAfterJob) Time(p int) moldable.Time {
	*c.calls++
	if *c.calls == c.after {
		c.cancel()
	}
	return 1 + 30/moldable.Time(p)
}

// TestMidReplanCancelResumes pins the resumable-cancellation contract
// at its hardest point: a ctx that dies mid-replan (inside the
// planner's probe loop) must interrupt WITHOUT poisoning the runtime —
// the pending set is intact and a retry under a live context drains
// everything. (A cancel made sticky here would also leak service
// sessions forever: OnlineDrain keeps the ticket on canceled drains.)
func TestMidReplanCancelResumes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt, err := New(Config{M: 64, Policy: ReplanOnEpoch, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	// First job's oracle kills the context partway through the first
	// epoch's replan.
	evs, err := rt.Arrive(ctx, Arrival{T: 0, Job: cancelAfterJob{calls: &calls, after: 10, cancel: cancel}})
	if !errors.Is(err, scherr.ErrCanceled) {
		t.Fatalf("mid-replan arrive error %v, want ErrCanceled", err)
	}
	if calls < 10 {
		t.Fatalf("cancellation landed after %d oracle calls, not inside the replan", calls)
	}
	// The documented contract: the job was admitted before the replan
	// died (EvArrive is in the events), so it must NOT be re-sent — it
	// stays pending and gets planned at the next opportunity.
	if len(evs) == 0 || evs[0].Kind != EvArrive {
		t.Fatalf("canceled arrive events %v, want the admission visible", evs)
	}
	live := context.Background()
	if _, err := rt.Arrive(live, Arrival{T: 1, Job: moldable.PerfectSpeedup{W: 20}}); err != nil {
		t.Fatalf("arrive after canceled replan: %v", err)
	}
	if _, err := rt.Drain(live); err != nil {
		t.Fatalf("drain after canceled replan: %v", err)
	}
	if met := rt.Metrics(); met.Jobs != 2 || met.Finished != 2 {
		t.Fatalf("jobs=%d finished=%d after resume, want 2, 2", met.Jobs, met.Finished)
	}
}

// TestRigidAllot pins the 1/2-efficiency rule on a closed form: an
// Amdahl job with Seq=1, Par=99 has w(p) = p + 99, and w(p) ≤ 2·w(1) =
// 200 up to p = 101 — so the rule gives min(m, 101).
func TestRigidAllot(t *testing.T) {
	j := moldable.Amdahl{Seq: 1, Par: 99}
	if got := rigidAllot(j, 1024); got != 101 {
		t.Fatalf("rigidAllot=%d, want 101", got)
	}
	if got := rigidAllot(j, 64); got != 64 {
		t.Fatalf("rigidAllot capped=%d, want 64", got)
	}
	if got := rigidAllot(moldable.Sequential{T: 5}, 64); got != 2 {
		// No speedup: w(p)=5p, so w(p) ≤ 2·w(1) exactly at p=2 (the
		// efficiency-1/2 boundary).
		t.Fatalf("sequential rigidAllot=%d, want 2", got)
	}
	if got := rigidAllot(moldable.PerfectSpeedup{W: 7}, 64); got != 64 {
		t.Fatalf("perfect rigidAllot=%d, want 64", got)
	}
}

// TestGenerateShapes sanity-checks both processes: rate roughly
// honored, horizon truncation, burstiness visibly exceeding Poisson's
// gap variance.
func TestGenerateShapes(t *testing.T) {
	pois, err := Generate(TraceConfig{N: 2000, Seed: 3, Process: Poisson, Rate: 2})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := Generate(TraceConfig{N: 2000, Seed: 3, Process: Bursty, Rate: 2})
	if err != nil {
		t.Fatal(err)
	}
	meanGap := func(tr []Arrival) float64 {
		return float64(tr[len(tr)-1].T-tr[0].T) / float64(len(tr)-1)
	}
	cv2 := func(tr []Arrival) float64 { // squared coefficient of variation of gaps
		mu := meanGap(tr)
		var s float64
		for i := 1; i < len(tr); i++ {
			d := float64(tr[i].T-tr[i-1].T) - mu
			s += d * d
		}
		return s / float64(len(tr)-1) / (mu * mu)
	}
	if g := meanGap(pois); math.Abs(g-0.5) > 0.1 {
		t.Errorf("poisson mean gap %g, want ≈ 0.5 at rate 2", g)
	}
	if p, b := cv2(pois), cv2(burst); b < 2*p {
		t.Errorf("bursty CV² %g not clearly above poisson's %g", b, p)
	}
	short, err := Generate(TraceConfig{N: 2000, Seed: 3, Process: Poisson, Rate: 2, Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(short); n >= 2000 || short[n-1].T > 10 {
		t.Errorf("horizon ignored: %d arrivals, last at %g", n, short[n-1].T)
	}
	if _, err := Generate(TraceConfig{N: 0, Rate: 1}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Generate(TraceConfig{N: 5, Rate: 0}); err == nil {
		t.Error("rate=0 accepted")
	}
}
