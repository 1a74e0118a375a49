// Command perfbench is the repository's benchmark: three workloads that
// each load one layer of the scheduling stack and bypass another,
// measured end to end in an untraced run and layer by layer in a
// separate traced run with the same seed. See METRICS.md.
//
//	perfbench --workload solve-knapsack --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the run's
// correctness, op counts and metrics; the lines before it are the same
// metrics as a table, with the sample counts behind the percentiles.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/service"
)

// workload is one benchmark workload. A run sets it up, then executes
// rounds: prepare makes the next round's inputs, run executes and times
// its ops, check verifies their outputs. Only run is inside the timed
// region.
type workload interface {
	setup(ctx context.Context) error
	roundSize() int
	prepare(n int)
	run(ctx context.Context) []float64
	check(acc *checker)
	stats() service.Stats
	startTrace()
	layers(m map[string]metric, c0, c1 counters)
	close()
}

var workloads = []string{"solve-knapsack", "solve-widem", "serve-hit"}

// newWorkload builds a workload. The round sizes keep a round's size mix
// the same from round to round: 41 is the period of solve-knapsack's job
// counts, and 1024 ops are four passes over serve-hit's working set.
func newWorkload(ctx context.Context, name string, seed uint64, tiny bool) (workload, error) {
	switch name {
	case "solve-knapsack":
		return newSolve(knapsackInstance, 16, 41, seed, tiny), nil
	case "solve-widem":
		return newSolve(widemInstance, 64, 512, seed, tiny), nil
	case "serve-hit":
		return newServeHit(ctx, seed, tiny)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks the instances, and maxOps > 0 ends each phase after
	// exactly that many ops instead of after the time budget; the
	// benchmark's test uses both.
	tiny   bool
	maxOps int
}

const (
	setupReps = 3   // setups per run; setup_s is their median
	minOps    = 100 // p90 has at least 10 samples beyond it
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	firstFail string
}

// layerUnits lists every per-layer metric. A layer the workload
// bypasses reads 0.
var layerUnits = map[string]string{
	"fast.try_ms":               "ms",
	"fptas.try_ms":              "ms",
	"dual.probes_per_op":        "count",
	"dual.accept_share":         "share",
	"lt.estimate_ms":            "ms",
	"moldable.memo_build_us":    "us",
	"moldable.memo_hit_share":   "share",
	"service.hash_us":           "us",
	"schedule.clone_us":         "us",
	"obs.sched_us":              "us",
	"service.overhead_us":       "us",
	"netserve.submit_rtt_us":    "us",
	"netserve.result_rtt_us":    "us",
	"netserve.server_submit_us": "us",
	"netserve.server_result_us": "us",
	"netserve.transport_us":     "us",
	"moldable.validate_us":      "us",
	"moldable.codec_us":         "us",
	"service.result_hit_share":  "share",
	"runtime.gc_cpu_share":      "share",
	"runtime.gc_cycles_per_kop": "cycles/kop",
	"trace.unattributed_share":  "share",
	"trace.overhead_share":      "share",
}

// checker accumulates the correctness checks of a run.
type checker struct {
	attempted, failed int
	firstFail         string
	ratios            []float64
}

func (c *checker) fail(format string, args ...any) {
	c.attempted++
	c.failed++
	if c.firstFail == "" {
		c.firstFail = fmt.Sprintf(format, args...)
	}
}

// bound checks a makespan against its guarantee and records its ratio.
func (c *checker) bound(makespan, limit, ratio float64) {
	if makespan > limit*(1+1e-9) {
		c.fail("makespan %v exceeds the guarantee %v", makespan, limit)
		return
	}
	c.attempted++
	c.ratios = append(c.ratios, ratio)
}

// counters are the program's exported counters read around a traced
// phase.
type counters struct {
	st   service.Stats
	wire [4]int64 // submit sum, submit count, result sum, result count (ns)
}

func readCounters(w workload) counters {
	sub, res := wireOp("submit"), wireOp("result")
	return counters{st: w.stats(), wire: [4]int64{sub.Sum(), sub.Count(), res.Sum(), res.Count()}}
}

// runner executes the rounds of one run.
type runner struct {
	cfg      config
	w        workload
	acc      checker
	prepared int // ops already prepared for the next round
}

func (r *runner) nextRound(done int) int {
	n := r.w.roundSize()
	if r.cfg.maxOps > 0 {
		n = min(n, r.cfg.maxOps-done)
	}
	return n
}

// setup sets the workload up setupReps times, each from scratch, and
// returns the median time. A setup includes making the first round's
// inputs.
func (r *runner) setup(ctx context.Context) (float64, error) {
	var times []float64
	for range setupReps {
		r.w.close()
		t0 := time.Now()
		if err := r.w.setup(ctx); err != nil {
			return 0, err
		}
		r.prepared = r.nextRound(0)
		r.w.prepare(r.prepared)
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// measure runs rounds until the phase has used budget and done minOps
// ops (or exactly maxOps ops when set).
func (r *runner) measure(ctx context.Context, budget time.Duration) *phase {
	p := &phase{}
	for {
		n := r.nextRound(p.attempted)
		if n <= 0 {
			break
		}
		if r.prepared != n {
			r.w.prepare(n)
		}
		r.prepared = 0
		a := takeSample()
		t0 := time.Now()
		lat := r.w.run(ctx)
		wall := time.Since(t0)
		p.add(a, takeSample(), wall, n, lat)
		r.w.check(&r.acc)
		if r.cfg.maxOps == 0 && p.wall >= budget && p.attempted >= minOps {
			break
		}
	}
	return p
}

func run(ctx context.Context, cfg config) (*result, *phase, error) {
	w, err := newWorkload(ctx, cfg.workload, cfg.seed, cfg.tiny)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	r := &runner{cfg: cfg, w: w}
	setup, err := r.setup(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	p := r.measure(ctx, budget)
	if p.ops() == 0 {
		return nil, nil, fmt.Errorf("no op completed: %s", r.acc.firstFail)
	}
	m := map[string]metric{}
	if !cfg.trace {
		n := float64(p.ops())
		runtime.GC()
		var mst runtime.MemStats
		runtime.ReadMemStats(&mst)
		m["setup_s"] = metric{setup, "s"}
		// The median round, so a burst of host contention in a few
		// rounds does not move it.
		m["ops_per_s"] = metric{median(p.rates), "1/s"}
		m["lat_p50_ms"] = metric{quantile(p.lat, 0.5), "ms"}
		m["lat_p90_ms"] = metric{quantile(p.lat, 0.9), "ms"}
		m["cpu_ms_per_op"] = metric{ms(p.cpu) / n, "ms"}
		m["alloc_kb_per_op"] = metric{float64(p.alloc) / 1024 / n, "KiB"}
		m["heap_live_mb"] = metric{float64(mst.HeapAlloc) / (1 << 20), "MiB"}
		ratioMax := 0.0
		if len(r.acc.ratios) > 0 {
			ratioMax = slices.Max(r.acc.ratios)
		}
		m["ratio_mean"] = metric{mean(r.acc.ratios), "ratio"}
		m["ratio_max"] = metric{ratioMax, "ratio"}
	} else {
		for name, unit := range layerUnits {
			m[name] = metric{0, unit}
		}
		n := float64(p.ops())
		m["runtime.gc_cpu_share"] = metric{share(p.gcCPU, p.usedCPU), "share"}
		m["runtime.gc_cycles_per_kop"] = metric{float64(p.gcCycles) * 1000 / n, "cycles/kop"}
		w.startTrace()
		c0 := readCounters(w)
		pt := r.measure(ctx, budget)
		if pt.ops() == 0 {
			return nil, nil, fmt.Errorf("no traced op completed: %s", r.acc.firstFail)
		}
		w.layers(m, c0, readCounters(w))
		m["trace.overhead_share"] = metric{quantile(pt.lat, 0.5)/quantile(p.lat, 0.5) - 1, "share"}
		p.attempted += pt.attempted
		p.lat = append(p.lat, pt.lat...)
		p.wall += pt.wall
	}
	return &result{
		Correct:   r.acc.failed == 0,
		Attempted: r.acc.attempted,
		Failed:    r.acc.failed,
		Metrics:   m,
		firstFail: r.acc.firstFail,
	}, p, nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured time of the run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	flag.Parse()
	cfg.trace = *trace == 1
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, p, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d checks failed, first: %s\n", cfg.workload, res.Failed, res.firstFail)
	}
	printTable(cfg, res, p)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// printTable prints every metric by name with its unit, plus the
// failure share and the sample counts behind the percentiles.
func printTable(cfg config, res *result, p *phase) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("# %s seed=%d %s run, %d ops in %.1fs measured\n", cfg.workload, cfg.seed, mode, p.ops(), p.wall.Seconds())
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		v := res.Metrics[name]
		note := ""
		if name == "lat_p50_ms" || name == "lat_p90_ms" {
			note = fmt.Sprintf("  (n=%d)", p.ops())
		}
		fmt.Printf("%-28s %14.6g %-10s%s\n", name, v.Value, v.Unit, note)
	}
	fmt.Printf("%-28s %14.6g %-10s  (%d of %d checks failed)\n", "fail_share",
		share(float64(res.Failed), float64(res.Attempted)), "share", res.Failed, res.Attempted)
}
