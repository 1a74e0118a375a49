package main

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/netserve"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/service"
)

// serveOp is one submit+result pair and its outcome.
type serveOp struct {
	idx int // index into the working set
	s   *schedule.Schedule
	rep *core.Report
	err error
}

// serveHit runs netserve.Server on loopback TCP in this process, with
// 2 shards and otherwise moldschedd's defaults, and drives it from
// conns connections, each a closed loop sending the submit
// (schedule:true) + blocking result pair that Client.Schedule sends
// under WithDial. The working set stays in the result cache, so after
// the warm-up pass no scheduling runs.
type serveHit struct {
	size  int // working-set size
	set   []*moldable.Instance
	ref   []service.Result // in-process results, the correctness reference
	conns int
	chunk int
	seed  uint64

	srv     *netserve.Server
	served  chan error
	clients []*netserve.WireClient
	next    int // global index of the next op
	ops     []serveOp

	tr []*serveTrace // one per connection in traced rounds
}

// newServeHit builds the workload and its correctness reference: the
// in-process result of every served instance. The reference is the
// benchmark's own check, so it is computed here and not in setup.
func newServeHit(ctx context.Context, seed uint64, tiny bool) (*serveHit, error) {
	size, chunk := 256, 1024
	if tiny {
		size, chunk = 16, 32
	}
	w := &serveHit{size: size, conns: 2, chunk: chunk, seed: seed}
	c := repro.New()
	defer c.Close()
	w.generate()
	for i, in := range w.set {
		s, rep, err := c.Schedule(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("in-process reference %d: %w", i, err)
		}
		w.ref = append(w.ref, service.Result{Schedule: s, Report: rep})
	}
	return w, nil
}

func (w *serveHit) generate() {
	w.set = w.set[:0]
	for i := range w.size {
		w.set = append(w.set, serveInstance(subSeed(w.seed, streamServed), uint64(i)))
	}
}

func (w *serveHit) setup(ctx context.Context) error {
	w.generate()
	w.srv = netserve.NewServer(context.Background(), netserve.ServerConfig{
		Shards: 2,
		Service: service.Config{
			ResultCacheCap: 1024, MemoCap: 256, MemoBudgetMB: 256,
		},
		Probes: 256,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	for range w.conns {
		wc, err := netserve.Dial(ctx, ln.Addr().String())
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		w.clients = append(w.clients, wc)
	}
	// Warm-up: one pass over the working set computes and caches it.
	w.next = 0
	w.prepare(len(w.set))
	if _, err := w.runConns(ctx, nil); err != nil {
		return err
	}
	for _, op := range w.ops {
		if op.err != nil {
			return fmt.Errorf("warm-up: %w", op.err)
		}
	}
	w.next = 0
	return nil
}

func (w *serveHit) roundSize() int { return w.chunk }

func (w *serveHit) prepare(n int) {
	w.ops = w.ops[:0]
	for range n {
		w.ops = append(w.ops, serveOp{idx: w.next % len(w.set)})
		w.next++
	}
}

func (w *serveHit) run(ctx context.Context) []float64 {
	lat, err := w.runConns(ctx, w.tr)
	if err != nil {
		// A lost connection fails every op it did not finish; check
		// counts them.
		for i := range w.ops {
			if w.ops[i].rep == nil && w.ops[i].err == nil {
				w.ops[i].err = err
			}
		}
	}
	return lat
}

// runConns runs the round's ops: connection k takes ops k, k+conns, ….
func (w *serveHit) runConns(ctx context.Context, tr []*serveTrace) ([]float64, error) {
	lats := make([][]float64, w.conns)
	errs := make([]error, w.conns)
	var wg sync.WaitGroup
	for k := range w.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t *serveTrace
			if tr != nil {
				t = tr[k]
			}
			lats[k], errs[k] = w.loop(ctx, w.clients[k], k, t)
		}()
	}
	wg.Wait()
	return slices.Concat(lats...), errors.Join(errs...)
}

func (w *serveHit) loop(ctx context.Context, wc *netserve.WireClient, k int, t *serveTrace) ([]float64, error) {
	var lat []float64
	for i := k; i < len(w.ops); i += w.conns {
		op := &w.ops[i]
		in := w.set[op.idx]
		t0 := time.Now()
		id, err := wc.Submit(ctx, in, core.Options{}, true)
		t1 := time.Now()
		var r service.Result
		if err == nil {
			r, err = wc.Result(ctx, id, true, in)
		}
		t2 := time.Now()
		if err != nil {
			op.err = err
			if errors.Is(err, netserve.ErrUnavailable) {
				return lat, err
			}
			continue
		}
		op.s, op.rep, op.err = r.Schedule, r.Report, r.Err
		lat = append(lat, ms(t2.Sub(t0)))
		if t != nil {
			t.submit += t1.Sub(t0)
			t.result += t2.Sub(t1)
			t.replay(in)
		}
	}
	return lat, nil
}

func (w *serveHit) check(acc *checker) {
	for _, op := range w.ops {
		if op.err != nil {
			acc.fail("submit+result: %v", op.err)
			continue
		}
		in, ref := w.set[op.idx], w.ref[op.idx]
		if err := schedule.Validate(in, op.s, schedule.Options{}); err != nil {
			acc.fail("invalid wire schedule: %v", err)
			continue
		}
		if !sameSchedule(op.s, ref.Schedule) || op.rep.Makespan != ref.Report.Makespan {
			acc.fail("wire result for instance %d differs from the in-process result", op.idx)
			continue
		}
		// The in-process guarantee, against OPT ≤ 2ω.
		mk := op.s.Makespan()
		acc.bound(mk, ref.Report.Guarantee*2*ref.Report.Omega, mk/op.rep.LowerBound)
	}
	w.ops = w.ops[:0]
}

// sameSchedule compares what the wire carries, job by job: processor
// count, start and the duration the oracle gives for it.
func sameSchedule(a, b *schedule.Schedule) bool {
	if len(a.Placements) != len(b.Placements) {
		return false
	}
	byJob := make(map[int]schedule.Placement, len(b.Placements))
	for _, p := range b.Placements {
		byJob[p.Job] = p
	}
	for _, p := range a.Placements {
		q, ok := byJob[p.Job]
		if !ok || p.Procs != q.Procs || p.Start != q.Start || p.Duration != q.Duration {
			return false
		}
	}
	return true
}

func (w *serveHit) stats() service.Stats { return w.srv.Router().Stats() }

func (w *serveHit) startTrace() {
	w.tr = make([]*serveTrace, w.conns)
	for k := range w.tr {
		w.tr[k] = &serveTrace{seed: maphash.MakeSeed()}
	}
}

// layers reports the per-layer metrics of the traced phase from the
// connections' traces and the obs/service deltas around the phase.
func (w *serveHit) layers(m map[string]metric, c0, c1 counters) {
	var t serveTrace
	for _, c := range w.tr {
		t.submit += c.submit
		t.result += c.result
		t.validate += c.validate
		t.enc += c.enc
		t.dec += c.dec
		t.hash += c.hash
		t.ops += c.ops
	}
	n := float64(t.ops)
	subSrv := share(float64(c1.wire[0]-c0.wire[0])/1e3, float64(c1.wire[1]-c0.wire[1]))
	resSrv := share(float64(c1.wire[2]-c0.wire[2])/1e3, float64(c1.wire[3]-c0.wire[3]))
	opUS := us(t.submit+t.result) / n
	transport := opUS - subSrv - resSrv
	m["netserve.submit_rtt_us"] = metric{us(t.submit) / n, "us"}
	m["netserve.result_rtt_us"] = metric{us(t.result) / n, "us"}
	m["netserve.server_submit_us"] = metric{subSrv, "us"}
	m["netserve.server_result_us"] = metric{resSrv, "us"}
	m["netserve.transport_us"] = metric{transport, "us"}
	m["moldable.validate_us"] = metric{us(t.validate) / n, "us"}
	m["moldable.codec_us"] = metric{us(t.enc+t.dec) / n, "us"}
	m["service.hash_us"] = metric{us(t.hash) / n, "us"}
	m["service.result_hit_share"] = metric{float64(c1.st.ResultHits-c0.st.ResultHits) / n, "share"}
	// The client-side encode is inside transport already, so only the
	// server-side decode of the codec counts as its own layer here.
	attributed := transport + us(t.validate+t.dec+t.hash)/n
	m["trace.unattributed_share"] = metric{1 - attributed/opUS, "share"}
}

func (w *serveHit) close() {
	for _, wc := range w.clients {
		wc.Close()
	}
	w.clients = nil
	if w.srv != nil {
		w.srv.Close()
		<-w.served
		w.srv = nil
	}
}

// serveTrace holds one connection's per-layer figures in a traced
// phase. The op is the real submit+result pair, timed on the client
// per call; the server's own handling times come from the obs
// wire_op_latency_ns histograms. After each op the instance's server
// path is replayed from the layers' public functions: monotonicity
// validation at the server's probe budget, the instance codec, and the
// service hash.
type serveTrace struct {
	seed                     maphash.Seed
	submit, result           time.Duration
	validate, enc, dec, hash time.Duration
	ops                      int
}

func (t *serveTrace) replay(in *moldable.Instance) {
	t.ops++
	t0 := time.Now()
	// The server already accepted and decoded every served instance, so
	// the replayed calls cannot fail.
	_ = in.Validate(256)
	t1 := time.Now()
	raw, _ := moldable.MarshalInstance(in)
	t2 := time.Now()
	_, _ = moldable.UnmarshalInstance(raw)
	t3 := time.Now()
	service.HashInstance(t.seed, in)
	t4 := time.Now()
	t.validate += t1.Sub(t0)
	t.enc += t2.Sub(t1)
	t.dec += t3.Sub(t2)
	t.hash += t4.Sub(t3)
}

// wireOp returns the obs latency histogram of a wire operation.
func wireOp(name string) *obs.Histogram {
	return obs.WireOpLatency.At(slices.Index(obs.OpLabels, name))
}
