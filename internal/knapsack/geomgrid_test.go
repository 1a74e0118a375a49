package knapsack

import (
	"math"
	"math/rand/v2"
	"testing"
)

// upIdxSearch is the reference for GeomGrid.UpIdx: binary search for
// the smallest grid element ≥ v, or -1.
func upIdxSearch(g []float64, v float64) int {
	if len(g) == 0 || v > g[len(g)-1] {
		return -1
	}
	lo, hi := 0, len(g)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if g[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// alg3Grids returns the (L, U, x) parameters of the grids Alg3 rounds
// onto in one dual probe at makespan guess d: processor counts
// geom(b, m, 1+ρ), processing times geom(d/2, d, 1+4ρ) and
// geom(d/4, d/2, 1+4ρ), and narrow profits geom(δd/2, bd/2, 1+δ/b),
// with δ = ε/5 and ρ, b from Lemma 16.
func alg3Grids(eps, d float64, m int) [][3]float64 {
	delta := eps / 5
	rho := (math.Sqrt(1+delta) - 1) / 4
	b := math.Ceil(1 / (2*rho - rho*rho))
	return [][3]float64{
		{b, math.Max(b, float64(m)), 1 + rho},
		{d / 2, d, 1 + 4*rho},
		{d / 4, d / 2, 1 + 4*rho},
		{delta * d / 2, b * d / 2, 1 + delta/b},
	}
}

// checkGridExact asserts that GeomGrid(L, U, x) reproduces
// GeomAppend(nil, L, U, x) element for element and in length.
func checkGridExact(t *testing.T, L, U, x float64) {
	t.Helper()
	want := Geom(L, U, x)
	g := NewGeomGrid(L, U, x)
	if g.Len() != len(want) {
		t.Fatalf("geom(%v, %v, %v): Len %d, GeomAppend built %d", L, U, x, g.Len(), len(want))
	}
	for i, w := range want {
		if got := g.At(i); got != w {
			t.Fatalf("geom(%v, %v, %v): At(%d) = %.17g, GeomAppend %.17g", L, U, x, i, got, w)
		}
	}
}

// TestGeomGridMatchesGeomAppend: At and Len must equal the materialized
// grid exactly — on every grid Alg3 builds for ε from 0.02 to 1, on
// the TestGeom* parameter sets, on ratios just coarse enough to stay
// on the closed-form path, and on near-1 ratios where GeomAppend's
// monotonicity guard fires at a block start.
func TestGeomGridMatchesGeomAppend(t *testing.T) {
	var cases [][3]float64
	for _, eps := range []float64{0.02, 0.05, 0.1, 0.2, 0.25, 0.5, 1} {
		cases = append(cases, alg3Grids(eps, 37.5, 4096)...)
	}
	cases = append(cases,
		[3]float64{1, 1 << 20, 1.5},
		[3]float64{24, 8192, 1.0105},
		[3]float64{0.5, 3, 1.04},
		[3]float64{40, 1 << 20, 1.025},
		[3]float64{3, 3, 2},
		[3]float64{1e-6, 1e6, 1.0009765625},
		[3]float64{7, 1e9, 1 + 1.0/(1<<16)},
		[3]float64{1e-300, 1e-290, 1.5},
	)
	cases = append(cases, alg3Grids(0.1, 1e6*math.Pi, 300)...)
	// Near-1 ratios whose grids fire the guard at a block start
	// (GeomAppend's element differs from L·math.Pow(x, i) there).
	guarded := [][3]float64{
		{1837.193222937972, 1837.1932229382367, 1 + 1*0x1p-52},
		{0.04050454162846725, 0.04050454162850238, 1 + 3*0x1p-52},
		{154.92464878679564, 154.92464878743053, 1 + 8*0x1p-52},
		{0.0011886423063369918, 0.0011886423063402064, 1 + 4*0x1p-52},
	}
	for _, p := range guarded {
		g := Geom(p[0], p[1], p[2])
		fired := false
		for i := geomResync; i < len(g); i += geomResync {
			fired = fired || g[i] != p[0]*math.Pow(p[2], float64(i))
		}
		if !fired {
			t.Fatalf("geom(%v, %v, %v): block-start guard no longer fires; pick another case", p[0], p[1], p[2])
		}
		if NewGeomGrid(p[0], p[1], p[2]).fast {
			t.Fatalf("geom(%v, %v, %v): guard-firing grid on the closed-form path", p[0], p[1], p[2])
		}
	}
	cases = append(cases, guarded...)
	for _, p := range cases {
		checkGridExact(t, p[0], p[1], p[2])
	}
	// Ratios just above the closed-form threshold x−1 > 2⁻⁴², up to
	// 4·10⁵ elements: the threshold does not depend on the length.
	rng := rand.New(rand.NewPCG(13, 0))
	for k := 0; k < 44; k++ {
		n := 100 + rng.IntN(4000)
		if k >= 40 {
			n = 100000 * (k - 39)
		}
		x := 1 + 0x1p-42*(1+rng.Float64())
		L := math.Ldexp(1+rng.Float64(), rng.IntN(80)-40)
		U := L * math.Pow(x, float64(n)-0.5)
		if !NewGeomGrid(L, U, x).fast {
			t.Fatalf("geom(%v, %v, %v) left the closed-form path", L, U, x)
		}
		checkGridExact(t, L, U, x)
	}
}

// TestGeomGridIndexLookups: UpIdx and DownIdx must equal binary search
// on the materialized grid at every grid point, one ulp to either side,
// outside the grid, and at random values across its span.
func TestGeomGridIndexLookups(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	var cases [][3]float64
	for _, eps := range []float64{0.05, 0.25, 1} {
		cases = append(cases, alg3Grids(eps, 12.5, 700)...)
	}
	cases = append(cases,
		[3]float64{3, 3, 2},
		[3]float64{1, 4096, 1.25},
		[3]float64{0.125, 977, 1.000977},
		[3]float64{1837.193222937972, 1837.1932229382367, 1 + 1*0x1p-52},
	)
	for _, p := range cases {
		L, U, x := p[0], p[1], p[2]
		want := Geom(L, U, x)
		g := NewGeomGrid(L, U, x)
		check := func(v float64) {
			if got, exp := g.UpIdx(v), upIdxSearch(want, v); got != exp {
				t.Fatalf("geom(%v, %v, %v): UpIdx(%.17g) = %d, binary search %d", L, U, x, v, got, exp)
			}
			if got, exp := g.DownIdx(v), RoundDownIdx(want, v); got != exp {
				t.Fatalf("geom(%v, %v, %v): DownIdx(%.17g) = %d, binary search %d", L, U, x, v, got, exp)
			}
		}
		stride := max(1, len(want)/2000)
		for i := 0; i < len(want); i += stride {
			w := want[i]
			check(w)
			check(math.Nextafter(w, 0))
			check(math.Nextafter(w, math.Inf(1)))
		}
		last := want[len(want)-1]
		check(last)
		check(math.Nextafter(last, math.Inf(1)))
		check(last * 3)
		check(L / 2)
		check(0)
		for k := 0; k < 2000; k++ {
			check(L * math.Pow(last/L, rng.Float64()))
		}
	}
	var empty GeomGrid
	if empty.Len() != 0 || empty.UpIdx(1) != -1 || empty.DownIdx(1) != -1 {
		t.Fatal("the zero GeomGrid must be empty")
	}
	if g := NewGeomGrid(2, 1, 1.5); g.Len() != 0 {
		t.Fatalf("U < L: Len %d, want the empty grid", g.Len())
	}
}

// TestGeomGridNoAlloc: building and querying a grid allocates nothing.
func TestGeomGridNoAlloc(t *testing.T) {
	p := alg3Grids(0.1, 40, 512)[3]
	allocs := testing.AllocsPerRun(20, func() {
		g := NewGeomGrid(p[0], p[1], p[2])
		if g.UpIdx(p[0]*7) < 0 || g.DownIdx(p[1]/3) < 0 {
			t.Fatal("lookup fell off the grid")
		}
	})
	if allocs != 0 {
		t.Errorf("GeomGrid build+lookup allocated %v/op", allocs)
	}
}
