package hpo

import (
	"math"
	"testing"
	"testing/quick"

	"varbench/internal/xrand"
)

// sphere is a simple convex objective with minimum at (0.3, 0.7).
func sphere(p Params) float64 {
	dx := p["x"] - 0.3
	dy := p["y"] - 0.7
	return dx*dx + dy*dy
}

var sphereSpace = Space{
	{Name: "x", Lo: 0, Hi: 1},
	{Name: "y", Lo: 0, Hi: 1},
}

func TestSpaceValidate(t *testing.T) {
	bad := []Space{
		{{Name: "", Lo: 0, Hi: 1}},
		{{Name: "a", Lo: 1, Hi: 1}},
		{{Name: "a", Lo: 0, Hi: 1, Log: true}},
		{{Name: "a", Lo: 0, Hi: 1}, {Name: "a", Lo: 0, Hi: 1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("space %d should be invalid", i)
		}
	}
	if err := sphereSpace.Validate(); err != nil {
		t.Errorf("valid space rejected: %v", err)
	}
}

func TestUnitRoundTrip(t *testing.T) {
	space := Space{
		{Name: "lr", Lo: 1e-4, Hi: 1e-1, Log: true},
		{Name: "mom", Lo: 0.5, Hi: 0.99},
	}
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		p := space.SampleUniform(r)
		back := space.FromUnit(space.ToUnit(p))
		for _, d := range space {
			if math.Abs(back[d.Name]-p[d.Name])/p[d.Name] > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSampleUniformRespectsLogBounds(t *testing.T) {
	space := Space{{Name: "wd", Lo: 1e-6, Hi: 1e-2, Log: true}}
	r := xrand.New(1)
	below := 0
	const n = 5000
	for i := 0; i < n; i++ {
		v := space.SampleUniform(r)["wd"]
		if v < 1e-6 || v >= 1e-2 {
			t.Fatalf("sample %v out of bounds", v)
		}
		if v < 1e-4 { // geometric midpoint
			below++
		}
	}
	if frac := float64(below) / n; math.Abs(frac-0.5) > 0.05 {
		t.Errorf("log-uniform midpoint fraction = %v, want ≈0.5", frac)
	}
}

func TestHistoryBestAndBestSoFar(t *testing.T) {
	h := History{
		{Value: 3}, {Value: 1}, {Value: 2},
	}
	best, ok := h.Best()
	if !ok || best.Value != 1 {
		t.Fatalf("Best = %v, %v", best, ok)
	}
	curve := h.BestSoFar()
	want := []float64{3, 1, 1}
	for i := range want {
		if curve[i] != want[i] {
			t.Fatalf("BestSoFar = %v", curve)
		}
	}
	if _, ok := (History{}).Best(); ok {
		t.Fatal("empty history should report !ok")
	}
}

func TestRandomSearchFindsSphereMin(t *testing.T) {
	h, err := RandomSearch{}.Optimize(sphere, sphereSpace, 300, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 300 {
		t.Fatalf("budget not respected: %d", len(h))
	}
	best, _ := h.Best()
	if best.Value > 0.01 {
		t.Errorf("random search best = %v, want < 0.01", best.Value)
	}
}

// TestGridSearchDeterministic: the unperturbed grid, NoisyGrid's anchors,
// is the same on every call.
func TestGridSearchDeterministic(t *testing.T) {
	h1, err := gridOptimize(sphere, sphereSpace, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := gridOptimize(sphere, sphereSpace, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(h1) != len(h2) {
		t.Fatal("grid lengths differ")
	}
	for i := range h1 {
		if h1[i].Value != h2[i].Value {
			t.Fatal("the unperturbed grid changed between calls")
		}
	}
	// 10×10 grid fits budget 100.
	if len(h1) != 100 {
		t.Errorf("grid size = %d, want 100", len(h1))
	}
}

func TestGridCoversBounds(t *testing.T) {
	h, err := gridOptimize(sphere, sphereSpace, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3×3 grid must include all four corners.
	corners := map[[2]float64]bool{}
	for _, tr := range h {
		corners[[2]float64{tr.Params["x"], tr.Params["y"]}] = true
	}
	for _, c := range [][2]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		if !corners[c] {
			t.Errorf("corner %v missing from grid", c)
		}
	}
}

func TestNoisyGridVariesAcrossSeedsButNotWithin(t *testing.T) {
	a, err := NoisyGrid{}.Optimize(sphere, sphereSpace, 25, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NoisyGrid{}.Optimize(sphere, sphereSpace, 25, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Value != b[i].Value {
			t.Fatal("same seed gave different noisy grids")
		}
	}
	c, err := NoisyGrid{}.Optimize(sphere, sphereSpace, 25, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Value != c[i].Value {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical noisy grids")
	}
}

func TestNoisyGridStaysNearAnchors(t *testing.T) {
	// Perturbation is at most Δ/2 per anchor, so every noisy grid point is
	// within Δ of its deterministic counterpart (clipped to the space).
	det, err := gridOptimize(sphere, sphereSpace, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := NoisyGrid{}.Optimize(sphere, sphereSpace, 25, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	delta := 1.0 / 4 // 5 points per dim on [0,1]
	for i := range det {
		for _, name := range []string{"x", "y"} {
			if math.Abs(det[i].Params[name]-noisy[i].Params[name]) > delta {
				t.Fatalf("noisy grid point %d drifted more than Δ", i)
			}
		}
	}
}

func TestBayesOptBeatsRandomOnSphere(t *testing.T) {
	const budget = 40
	const reps = 5
	var boTotal, rsTotal float64
	for rep := 0; rep < reps; rep++ {
		bo, err := BayesOpt{InitRandom: 8, Candidates: 128}.Optimize(
			sphere, sphereSpace, budget, xrand.New(uint64(rep)))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := RandomSearch{}.Optimize(sphere, sphereSpace, budget, xrand.New(uint64(rep)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := bo.Best()
		r, _ := rs.Best()
		boTotal += b.Value
		rsTotal += r.Value
		if len(bo) != budget {
			t.Fatalf("BayesOpt budget not respected: %d", len(bo))
		}
	}
	if boTotal > rsTotal*1.2 {
		t.Errorf("BayesOpt (%v) much worse than random (%v) on smooth objective",
			boTotal/reps, rsTotal/reps)
	}
}

func TestBayesOptHandlesConstantObjective(t *testing.T) {
	flat := func(Params) float64 { return 1.0 }
	h, err := BayesOpt{InitRandom: 3}.Optimize(flat, sphereSpace, 10, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 10 {
		t.Fatalf("constant objective broke BayesOpt: %d trials", len(h))
	}
}

func TestOptimizersOnLogSpace(t *testing.T) {
	// Minimum at lr = 1e-2 in log space.
	space := Space{{Name: "lr", Lo: 1e-5, Hi: 1, Log: true}}
	obj := func(p Params) float64 {
		d := math.Log10(p["lr"]) + 2
		return d * d
	}
	for _, opt := range []Optimizer{RandomSearch{}, NoisyGrid{}, BayesOpt{InitRandom: 5}} {
		h, err := opt.Optimize(obj, space, 30, xrand.New(3))
		if err != nil {
			t.Fatalf("%s: %v", opt.Name(), err)
		}
		best, _ := h.Best()
		if best.Value > 0.5 {
			t.Errorf("%s best = %v on log space, want < 0.5", opt.Name(), best.Value)
		}
	}
}

func TestParamsString(t *testing.T) {
	p := Params{"b": 2, "a": 1}
	if got := p.String(); got != "a=1 b=2" {
		t.Errorf("Params.String() = %q", got)
	}
}

func TestWidenExpandsBounds(t *testing.T) {
	w := widen(sphereSpace, 5)
	if w[0].Lo >= 0 || w[0].Hi <= 1 {
		t.Errorf("widen did not expand: %+v", w[0])
	}
	// Log dims stay positive.
	logSpace := Space{{Name: "lr", Lo: 1e-4, Hi: 1e-1, Log: true}}
	wl := widen(logSpace, 5)
	if wl[0].Lo <= 0 {
		t.Errorf("widened log dim non-positive: %v", wl[0].Lo)
	}
}
