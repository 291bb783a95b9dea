package hpo

import (
	"math"
	"testing"

	"varbench/internal/xrand"
)

func TestDegenerateBudgetGrids(t *testing.T) {
	// budget < 2^d: a single centred point; noisy variant stays in bounds
	// and varies across seeds.
	space := Space{
		{Name: "a", Lo: 0, Hi: 1},
		{Name: "b", Lo: 1e-4, Hi: 1, Log: true},
		{Name: "c", Lo: -1, Hi: 1},
	}
	h, err := gridOptimize(sphere3, space, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 1 {
		t.Fatalf("degenerate grid evaluated %d points, want 1", len(h))
	}
	if math.Abs(h[0].Params["a"]-0.5) > 1e-12 {
		t.Errorf("grid centre a = %v, want 0.5", h[0].Params["a"])
	}
	if math.Abs(h[0].Params["b"]-0.01) > 1e-9 { // geometric midpoint of [1e-4, 1]
		t.Errorf("grid centre b = %v, want 0.01", h[0].Params["b"])
	}
	n1, err := NoisyGrid{}.Optimize(sphere3, space, 6, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NoisyGrid{}.Optimize(sphere3, space, 6, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range [][]Trial{n1, n2} {
		for _, d := range space {
			v := h[0].Params[d.Name]
			if math.IsNaN(v) || v < d.Lo || v > d.Hi {
				t.Fatalf("noisy degenerate point out of bounds: %s=%v", d.Name, v)
			}
		}
	}
	if n1[0].Params["a"] == n2[0].Params["a"] {
		t.Error("noisy degenerate grids identical across seeds")
	}
}

func sphere3(p Params) float64 {
	return p["a"]*p["a"] + p["b"]*p["b"] + p["c"]*p["c"]
}
