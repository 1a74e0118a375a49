package main

import (
	"math"
	"math/rand/v2"

	"repro/internal/moldable"
)

// The benchmark's inputs. Everything here is a function of --seed and
// the op index, so one seed gives the same inputs on every run.

// Seed streams, so measured, warm-up and served instances never coincide.
const (
	streamMeasured uint64 = iota + 1
	streamWarmup
	streamServed
)

// subSeed derives the seed of item i from a stream seed (a splitmix64
// finalizer over both).
func subSeed(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 ^ (i+1)*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// sizeAt returns the i-th point of a fixed low-discrepancy sequence in
// [lo, hi]. Instance sizes follow it rather than the seed, so every seed
// covers the size range the same way and runs differ only in the
// generated jobs.
func sizeAt(i uint64, lo, hi int) int {
	const phi = 0.6180339887498949
	f := float64(i) * phi
	return lo + int((f-math.Floor(f))*float64(hi-lo+1))
}

// size selects the instance sizes: tiny for the benchmark's test, and
// largest for warm-up instances at the top of the workload's range.
type size struct{ tiny, largest bool }

// knapsackInstance is planted-optimum instance i in the knapsack regime:
// Auto routes it to Linear, and m < 16n keeps Linear on its Alg3 dual
// (at m ≥ 16n it would switch to the FPTAS dual). It returns the
// planted OPT.
func knapsackInstance(seed, i uint64, sz size) (*moldable.Instance, moldable.Time) {
	rng := rand.New(rand.NewPCG(seed, i))
	nLo, nHi, mLo, mHi := 20, 60, 64, 512
	if sz.tiny {
		nLo, nHi, mLo, mHi = 6, 11, 16, 64
	}
	n := nLo + int(i*17%uint64(nHi-nLo+1))
	m := sizeAt(i, mLo, min(mHi, 16*n-1))
	if sz.largest {
		n, m = nHi, mHi
	}
	p := moldable.Planted(moldable.PlantedConfig{M: m, D: 100 + 900*rng.Float64(), Seed: rng.Uint64(), MaxJobs: n})
	return p.Instance, p.OPT
}

// widemInstance is a mixed random instance with m far above 16n/ε, so
// Auto routes it to the FPTAS.
func widemInstance(seed, i uint64, sz size) (*moldable.Instance, moldable.Time) {
	n, m := 64, 1<<20
	if sz.tiny {
		n, m = 12, 1<<14
	}
	return moldable.Random(moldable.GenConfig{N: n, M: m, Seed: subSeed(seed, i)}), 0
}

// serveInstance is small mixed instance i of the served working set.
// m ≤ 256 makes the server's 256-probe monotonicity check exhaustive,
// and m ≥ 16n keeps scheduling it (once, in the warm-up) cheap: Linear
// then runs on the FPTAS dual.
func serveInstance(seed, i uint64) *moldable.Instance {
	n := 4 + int(i%13)
	return moldable.Random(moldable.GenConfig{N: n, M: sizeAt(i, 16*n, 256), Seed: subSeed(seed, i)})
}
