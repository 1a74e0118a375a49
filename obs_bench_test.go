// Observability-overhead benchmarks (ISSUE 9): the instrumented hot
// path against the same path with recording disabled, plus the wire
// round-trip latency of the serving layer. BENCH_PR9.json snapshots
// the allocs/op of each (the bench gate); PERFORMANCE.md quotes the
// enabled-vs-disabled delta.
package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/netserve"
	"repro/internal/obs"
	"repro/internal/service"
)

// benchObsOverhead runs the zero-alloc guard's workload (n=256,
// m=4096, Linear) through a warm scratch with recording on or off.
// The two series must stay within a few percent of each other — the
// whole point of the preregistered-atomics design — and both at
// 0 allocs/op.
func benchObsOverhead(b *testing.B, enabled bool) {
	prev := obs.SetEnabled(enabled)
	defer obs.SetEnabled(prev)
	in := moldable.Random(moldable.GenConfig{N: 256, M: 4096, Seed: 42})
	sc := &core.Scratch{}
	ctx := obs.WithTraceID(context.Background(), "bench")
	opt := core.Options{Algorithm: core.Linear, Eps: 0.25}
	if _, _, err := core.Schedule(ctx, in, opt, sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Schedule(ctx, in, opt, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObsOverhead_On(b *testing.B)  { benchObsOverhead(b, true) }
func BenchmarkObsOverhead_Off(b *testing.B) { benchObsOverhead(b, false) }

// wireSession starts a pipe-mode protocol session for a wire bench and
// returns the request writer, response decoder, and a shutdown func.
func wireSession(b *testing.B) (io.Writer, *json.Decoder, func()) {
	b.Helper()
	svc := service.New(service.Config{Workers: 2})
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- netserve.ServeLines(context.Background(), svc, inR, outW, netserve.ServeConfig{Probes: 16})
	}()
	return inW, json.NewDecoder(outR), func() {
		inW.Close()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		outW.Close()
		svc.Close()
	}
}

// BenchmarkWire_SubmitResult measures one submit + blocking-result
// round trip over the pipe transport: JSON decode, trace-id stamping,
// per-op metrics, admission, scheduling (result-cache hit after the
// first), JSON encode — the serving layer's end-to-end request cost.
func BenchmarkWire_SubmitResult(b *testing.B) {
	w, dec, stop := wireSession(b)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fmt.Fprintf(w, `{"op":"submit","tag":"b","algo":"linear","eps":0.25,"instance":{"m":64,"jobs":[{"type":"amdahl","seq":2,"par":98},{"type":"perfect","w":8}]}}`+"\n")
		var sub netserve.Response
		if err := dec.Decode(&sub); err != nil {
			b.Fatal(err)
		}
		if sub.Code != "" {
			b.Fatalf("submit: %+v", sub)
		}
		fmt.Fprintf(w, "{\"op\":\"result\",\"id\":%d,\"wait\":true}\n", sub.ID)
		var res netserve.Response
		if err := dec.Decode(&res); err != nil {
			b.Fatal(err)
		}
		if res.Code != "" {
			b.Fatalf("result: %+v", res)
		}
	}
}

// BenchmarkWire_Stats measures the cheapest wire op — a stats poll —
// isolating the protocol fixed costs (scan, decode, dispatch, metrics,
// encode) from scheduling work.
func BenchmarkWire_Stats(b *testing.B) {
	w, dec, stop := wireSession(b)
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		io.WriteString(w, `{"op":"stats","tag":"b"}`+"\n")
		var st netserve.Response
		if err := dec.Decode(&st); err != nil {
			b.Fatal(err)
		}
	}
}
