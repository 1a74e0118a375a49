package knapsack

import (
	"math"
	"testing"
)

// FuzzPairListVsDense: the two exact solvers must agree on any instance.
func FuzzPairListVsDense(f *testing.F) {
	f.Add(3, 7, 2, 11, 5, 3, uint8(20))
	f.Add(1, 1, 1, 1, 1, 1, uint8(2))
	f.Add(10, 100, 20, 5, 1, 50, uint8(60))
	f.Fuzz(func(t *testing.T, s1, s2, s3 int, p1, p2, p3 int, cRaw uint8) {
		C := int(cRaw)
		items := []Item{}
		for i, sp := range [][2]int{{s1, p1}, {s2, p2}, {s3, p3}} {
			if sp[0] < 1 || sp[0] > 1000 || sp[1] < 0 || sp[1] > 1000 {
				t.Skip()
			}
			items = append(items, Item{ID: i, Size: sp[0], Profit: float64(sp[1])})
		}
		_, pd := SolveDense(items, C)
		_, pp := SolvePairs(items, C)
		if math.Abs(pd-pp) > 1e-9*(1+pd) {
			t.Fatalf("dense %v != pairs %v (items %v, C=%d)", pd, pp, items, C)
		}
	})
}

// FuzzGeomRounding: gˇr/gˆr bracket their argument on any valid grid.
func FuzzGeomRounding(f *testing.F) {
	f.Add(1.0, 100.0, 1.5, 37.0)
	f.Add(0.5, 0.5, 1.01, 0.5)
	f.Fuzz(func(t *testing.T, L, U, x, a float64) {
		if !(L > 0) || U < L || U > 1e12 || x <= 1.0001 || x > 4 || a < L || a > U {
			t.Skip()
		}
		g := Geom(L, U, x)
		down := RoundDown(g, a)
		up := RoundUp(g, a)
		if math.IsNaN(down) || down > a || down*x < a/(1+1e-9) {
			t.Fatalf("RoundDown(%v) = %v out of (a/x, a]", a, down)
		}
		if math.IsNaN(up) || up < a || up > a*x*(1+1e-9) {
			t.Fatalf("RoundUp(%v) = %v out of [a, a·x]", a, up)
		}
	})
}

// FuzzGeomGrid: the closed-form grid must equal the materialized one —
// length, sampled elements, and UpIdx/DownIdx against binary search —
// on any valid grid of at most 10⁶ elements.
func FuzzGeomGrid(f *testing.F) {
	f.Add(1.0, 100.0, 1.5, 37.0)
	f.Add(0.5, 0.5, 1.01, 0.5)
	f.Add(0.0005, 0.1, 1.00005, 0.0123)
	f.Add(1837.193222937972, 1837.1932229382367, 1+0x1p-52, 1837.19322293801)
	f.Fuzz(func(t *testing.T, L, U, x, v float64) {
		if !(L > 0) || !(U >= L) || !(x > 1) || math.IsInf(U, 0) || math.IsNaN(v) {
			t.Skip()
		}
		if n := math.Log(U/L) / math.Log(x); !(n <= 1e6) {
			t.Skip()
		}
		want := Geom(L, U, x)
		g := NewGeomGrid(L, U, x)
		if g.Len() != len(want) {
			t.Fatalf("geom(%v, %v, %v): Len %d, GeomAppend built %d", L, U, x, g.Len(), len(want))
		}
		i := RoundDownIdx(want, v)
		for _, k := range []int{0, i, i + 1, len(want) - 1} {
			if k >= 0 && k < len(want) && g.At(k) != want[k] {
				t.Fatalf("geom(%v, %v, %v): At(%d) = %v, GeomAppend %v", L, U, x, k, g.At(k), want[k])
			}
		}
		if got := g.DownIdx(v); got != i {
			t.Fatalf("geom(%v, %v, %v): DownIdx(%v) = %d, binary search %d", L, U, x, v, got, i)
		}
		up := i
		if up < 0 || want[up] < v {
			up++
		}
		if up == len(want) {
			up = -1
		}
		if got := g.UpIdx(v); got != up {
			t.Fatalf("geom(%v, %v, %v): UpIdx(%v) = %d, binary search %d", L, U, x, v, got, up)
		}
	})
}
