package fast

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/moldable"
	"repro/internal/mrt"
	"repro/internal/schedule"
)

// TestSmokePlanted runs all three fast algorithms and the MRT baseline on
// planted-optimum instances and checks validity and the (3/2+ε) bound.
func TestSmokePlanted(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		pl := moldable.Planted(moldable.PlantedConfig{M: 64, D: 100, Seed: seed, MaxJobs: 30})
		in := pl.Instance
		eps := 0.25
		ctx := context.Background()
		type algo struct {
			name string
			run  func() (*schedule.Schedule, error)
		}
		algos := []algo{
			{"mrt", func() (*schedule.Schedule, error) { s, _, err := mrt.Schedule(ctx, in, eps, nil); return s, err }},
			{"alg1", func() (*schedule.Schedule, error) { s, _, err := ScheduleAlg1(ctx, in, eps, nil); return s, err }},
			{"alg3", func() (*schedule.Schedule, error) { s, _, err := ScheduleAlg3(ctx, in, eps, nil); return s, err }},
			{"linear", func() (*schedule.Schedule, error) { s, _, err := ScheduleLinear(ctx, in, eps, nil); return s, err }},
		}
		for _, a := range algos {
			s, err := a.run()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, a.name, err)
			}
			if err := schedule.Validate(in, s, schedule.Options{RequireConcrete: false}); err != nil {
				t.Fatalf("seed %d %s: invalid schedule: %v", seed, a.name, err)
			}
			ratio := s.Makespan() / pl.OPT
			if ratio > 1.5+eps+1e-9 {
				t.Errorf("seed %d %s: ratio %.4f exceeds %.4f", seed, a.name, ratio, 1.5+eps)
			}
			t.Logf("seed %d %s: makespan=%.4f OPT=%.4f ratio=%.4f", seed, a.name, s.Makespan(), pl.OPT, ratio)
		}
	}
}

// TestSmallEpsAllocBound: ε = 0.01 must stay cheap. Alg3's profit grid
// geom(δd/2, bd/2, 1+δ/b) has ~6·10⁷ elements there; rounding onto it
// in closed form keeps a whole Linear run on a 30-job, m = 419 instance
// under 16 MiB of allocation (materializing the grid on every dual
// probe allocated ~2.8 GB).
func TestSmallEpsAllocBound(t *testing.T) {
	pl := moldable.Planted(moldable.PlantedConfig{M: 419, D: 100, Seed: 7, MaxJobs: 30})
	in := pl.Instance
	if in.M >= 16*in.N() {
		t.Fatalf("m=%d n=%d is outside the knapsack regime", in.M, in.N())
	}
	const eps = 0.01
	var before, after runtime.MemStats
	var sc Scratch
	runtime.ReadMemStats(&before)
	s, _, err := ScheduleLinear(context.Background(), in, eps, &sc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if sc.a3.Stats.Types == 0 {
		t.Fatal("no probe reached the knapsack typing; the instance does not exercise the profit grid")
	}
	if err := schedule.Validate(in, s, schedule.Options{RequireConcrete: true}); err != nil {
		t.Fatal(err)
	}
	if ratio := s.Makespan() / pl.OPT; ratio > 1.5+eps+1e-9 {
		t.Errorf("ratio %.4f exceeds %.4f", ratio, 1.5+eps)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Errorf("ScheduleLinear at ε=%v allocated %d bytes, want < 16 MiB", eps, alloc)
	}
}
