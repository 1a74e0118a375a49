// Package knapsack implements the knapsack machinery of Jansen & Land
// §4.2: Lawler-style pair lists with dominance pruning, a dense dynamic
// program (the O(nm) baseline of Mounié–Rapine–Trystram), geometric
// value grids (Definition 13), the adaptive normalization of Lemma 12,
// the knapsack problem with compressible items (Algorithm 2 /
// Theorem 15), and the bounded-knapsack container transformation used by
// Algorithm 3.
package knapsack

import "math"

// Geom returns the geometric progression of Definition 13:
// geom(L, U, x) = {L·x^i | i = 0..⌈log_x(U/L)⌉}. The first element is L
// and the last is the first power ≥ U. Requires 0 < L, L ≤ U, x > 1.
// By Lemma 14, |geom(L,U,x)| = O(log(U/L)/(x−1)) for 1 < x < 2.
func Geom(L, U, x float64) []float64 {
	return GeomAppend(nil, L, U, x)
}

// GeomAppend is Geom appending onto dst (usually dst[:0] of a reused
// buffer), so callers that need the grid as a slice rebuild it without
// allocating. Invalid parameters return dst unchanged, mirroring Geom's
// nil. Callers that only round values onto a grid should use GeomGrid,
// which yields the same elements without materializing them.
//
// Elements track the closed form L·x^i instead of drifting with a pure
// running product: repeated multiplication loses up to one ulp per
// step, so on long grids the stored values disagree with L·x^i by
// thousands of ulps, RoundDownIdx misclassifies values that are
// exactly L·x^i, and the last element can land just below U where the
// closed form clears it. Computing every element with math.Pow
// restores exactness but is ~30× slower per element, so the builder
// resynchronizes to the closed form L·math.Pow(x, i) once per
// 32-element block and multiplies within the block: every element
// stays within ~32 ulps of the closed form, independent of the index.
// The monotonicity guard covers adjacent elements rounding onto
// non-increasing floats.
//sched:hotpath
func GeomAppend(dst []float64, L, U, x float64) []float64 {
	if !(L > 0) || !(U >= L) || !(x > 1) {
		return dst
	}
	const resync = geomResync
	v := L
	for i := 0; ; i++ {
		if i%resync == 0 && i > 0 {
			v = L * math.Pow(x, float64(i))
		}
		if i > 0 {
			if prev := dst[len(dst)-1]; v <= prev {
				v = math.Nextafter(prev, math.Inf(1))
			}
		}
		dst = append(dst, v)
		if v >= U {
			break
		}
		v *= x
	}
	return dst
}

// geomResync is the block length of GeomAppend's closed-form resync.
const geomResync = 32

// GeomGrid is geom(L, U, x) in closed form: element i is computed on
// demand, bit-identical to GeomAppend(nil, L, U, x)[i], so a caller
// that only rounds values onto the grid needs neither the O(N) build
// nor the O(N) buffer. Alg3's narrow-profit grid, for instance, has
// Θ(δ⁻²·log(1/δ)) elements — ~4·10⁵ at ε = 0.1 — but each dual probe
// rounds only one value per job onto it.
//
// At(i) replays GeomAppend's recurrence from the start of i's 32-element
// block: L·math.Pow(x, 32⌊i/32⌋), then at most 31 multiplies by x under
// the same monotonicity guard. That is exact when the guard never fires
// at a block start, i.e. when L·math.Pow(x, k) always exceeds the
// previous block's last element. math.Pow squares repeatedly, so the
// log of its relative error at exponent k is Σ_j λ_j·⌊k/2ʲ⌋ plus at
// most 62 product roundings, where λ_j is the rounding of the j-th
// squaring. Pow(x, k) and Pow(x, k−32)·x³² therefore differ by at most
// ~212 half-ulps whatever k is, and the 32 roundings of a block add 33
// more: a block start exceeds its predecessor whenever ln x > 256·2⁻⁵³.
// The fast flag requires x−1 > 2⁻⁴² (an 8× margin) and a normal L; it
// does not depend on the grid's length. Ratios nearer 1, where the
// guard does fire, replay the recurrence from element 0: still exact,
// but O(i) per lookup.
//
// The zero value is the empty grid.
type GeomGrid struct {
	L, x float64
	lnx  float64 // math.Log(x), for the index guesses
	n    int
	fast bool // block starts are exactly L·math.Pow(x, k); see above
}

// NewGeomGrid returns geom(L, U, x), the grid GeomAppend(nil, L, U, x)
// would build. Invalid parameters (see Geom) and an infinite U give the
// empty grid.
//sched:hotpath
func NewGeomGrid(L, U, x float64) GeomGrid {
	if !(L > 0) || !(U >= L) || !(x > 1) || math.IsInf(U, 1) {
		return GeomGrid{}
	}
	g := GeomGrid{L: L, x: x, lnx: math.Log(x)}
	g.fast = L >= 0x1p-1022 && x-1 > 0x1p-42
	// The grid ends at its first element ≥ U: locate it on the
	// unbounded grid.
	g.n = math.MaxInt
	g.n = g.UpIdx(U) + 1
	return g
}

// Len is the number of grid elements (len(GeomAppend(nil, L, U, x))).
func (g GeomGrid) Len() int { return g.n }

// At returns element i, 0 ≤ i < Len().
//sched:hotpath
func (g GeomGrid) At(i int) float64 {
	k := 0
	v := g.L
	if g.fast {
		k = i - i%geomResync
		if k > 0 {
			v = g.L * math.Pow(g.x, float64(k))
		}
	}
	for k < i {
		k++
		v = g.step(k, v)
	}
	return v
}

// step is GeomAppend's recurrence: element j from element j−1.
//sched:hotpath
func (g GeomGrid) step(j int, prev float64) float64 {
	v := prev * g.x
	if j%geomResync == 0 {
		v = g.L * math.Pow(g.x, float64(j))
	}
	if v <= prev {
		v = math.Nextafter(prev, math.Inf(1))
	}
	return v
}

// pair returns elements i−1 and i for 1 ≤ i < Len(). One recurrence
// step is exact in both modes: in fast mode the guard it applies at a
// block start never fires.
//sched:hotpath
func (g GeomGrid) pair(i int) (prev, cur float64) {
	prev = g.At(i - 1)
	return prev, g.step(i, prev)
}

// guess returns log_x(v/L) rounded by round (math.Ceil or math.Floor),
// clamped to [0, Len()−1] once the length is known.
//sched:hotpath
func (g GeomGrid) guess(v float64, round func(float64) float64) int {
	f := round(math.Log(v/g.L) / g.lnx)
	switch {
	case !(f > 0): // also NaN
		return 0
	case g.n > 0 && f >= float64(g.n-1):
		return g.n - 1
	case f > 1<<52:
		return 1 << 52
	}
	return int(f)
}

// UpIdx returns the index of the smallest element ≥ v (the index of
// gˆr(v)), or -1 when v exceeds the last element or the grid is empty.
//sched:hotpath
func (g GeomGrid) UpIdx(v float64) int {
	switch {
	case g.n == 0:
		return -1
	case v <= g.L:
		return 0
	case g.n == 1:
		return -1
	}
	i := max(g.guess(v, math.Ceil), 1)
	for {
		prev, cur := g.pair(i)
		switch {
		case cur < v:
			if i == g.n-1 {
				return -1
			}
			i++
		case prev >= v:
			i--
		default:
			return i
		}
	}
}

// DownIdx returns the index of the largest element ≤ v (the index of
// gˇr(v)), or -1 when v is below the first element or the grid is
// empty: RoundDownIdx on the materialized grid.
//sched:hotpath
func (g GeomGrid) DownIdx(v float64) int {
	switch {
	case g.n == 0 || !(v >= g.L):
		return -1
	case g.n == 1:
		return 0
	}
	i := min(g.guess(v, math.Floor), g.n-2)
	for {
		cur, next := g.pair(i + 1)
		switch {
		case cur > v:
			i--
		case next <= v:
			if i+1 == g.n-1 {
				return i + 1
			}
			i++
		default:
			return i
		}
	}
}

// RoundDownIdx returns the index of the largest grid element ≤ a, or -1
// when a is below the first element (gˇr undefined).
//sched:hotpath
func RoundDownIdx(g []float64, a float64) int {
	lo, hi := 0, len(g)-1
	if len(g) == 0 || a < g[0] {
		return -1
	}
	for lo < hi { // invariant: g[lo] ≤ a; find last such index
		mid := lo + (hi-lo+1)/2
		if g[mid] <= a {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// RoundDown is gˇr(a, L, U, x) on a precomputed grid: the largest grid
// value ≤ a. Returns NaN when undefined.
func RoundDown(g []float64, a float64) float64 {
	i := RoundDownIdx(g, a)
	if i < 0 {
		return math.NaN()
	}
	return g[i]
}

// RoundUp is gˆr: the smallest grid value ≥ a. Returns NaN when a exceeds
// the last grid value.
func RoundUp(g []float64, a float64) float64 {
	if len(g) == 0 || a > g[len(g)-1] {
		return math.NaN()
	}
	lo, hi := 0, len(g)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if g[mid] >= a {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return g[lo]
}
