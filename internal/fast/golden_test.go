package fast

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dual"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

// goldenKnapsackDigest pins the placements that Alg3 (heap rules) and
// Linear (bucket rules) produce on the knapsack-regime instances of
// TestGoldenKnapsackSchedules. Any change to item typing, grid
// rounding, the knapsack solver or the shelf builder that moves a
// single float bit changes it; a change meant to be schedule-neutral
// must leave it alone.
const goldenKnapsackDigest = "cab0a3d5f18649f1f5ec444d76027229b1d827d71bccbbfa6901f9109f410a28"

// TestGoldenKnapsackSchedules hashes every placement (job, procs,
// start, duration, first processor; floats as their IEEE-754 bits) of
// Alg3 and Linear on fixed planted instances with m < 16n — the regime
// where the knapsack dual, not the FPTAS, answers the probes — at
// ε ∈ {0.5, 0.25, 0.1, 0.05}.
func TestGoldenKnapsackSchedules(t *testing.T) {
	type sched func(context.Context, *moldable.Instance, float64, *Scratch) (*schedule.Schedule, dual.Report, error)
	algos := []struct {
		name string
		run  sched
	}{
		{"alg3", ScheduleAlg3},
		{"linear", ScheduleLinear},
	}
	shapes := []struct{ m, jobs int }{
		{20, 12}, {48, 24}, {100, 40}, {300, 40}, {1000, 80},
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	cases := 0
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			pl := moldable.Planted(moldable.PlantedConfig{M: sh.m, D: 100, Seed: seed, MaxJobs: sh.jobs})
			in := pl.Instance
			if in.M >= 16*in.N() {
				t.Fatalf("m=%d n=%d seed=%d is outside the knapsack regime", in.M, in.N(), seed)
			}
			for _, eps := range []float64{0.5, 0.25, 0.1, 0.05} {
				for _, a := range algos {
					s, _, err := a.run(context.Background(), in, eps, nil)
					if err != nil {
						t.Fatalf("%s m=%d seed=%d eps=%v: %v", a.name, in.M, seed, eps, err)
					}
					put(uint64(len(s.Placements)))
					for _, p := range s.Placements {
						put(uint64(p.Job))
						put(uint64(p.Procs))
						put(math.Float64bits(p.Start))
						put(math.Float64bits(p.Duration))
						put(uint64(int64(p.FirstProc)))
					}
					cases++
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenKnapsackDigest {
		t.Fatalf("placement digest over %d schedules = %s, want %s", cases, got, goldenKnapsackDigest)
	}
}
