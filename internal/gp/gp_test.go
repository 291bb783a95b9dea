package gp

import (
	"math"
	"testing"

	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

func gridX(vals ...float64) *tensor.Matrix {
	m := tensor.NewMatrix(len(vals), 1)
	for i, v := range vals {
		m.Set(i, 0, v)
	}
	return m
}

func TestGPInterpolatesWithSmallNoise(t *testing.T) {
	x := gridX(0, 1, 2, 3, 4)
	y := []float64{0, 1, 0, -1, 0} // one period of a sine-ish shape
	g, err := Fit(x, y, RBF{LengthScale: 1, Variance: 1}, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows; i++ {
		mu, v := g.Predict(x.Row(i))
		if math.Abs(mu-y[i]) > 1e-3 {
			t.Errorf("GP does not interpolate at %v: %v vs %v", x.Row(i), mu, y[i])
		}
		if v > 1e-3 {
			t.Errorf("variance at training point = %v, want ≈0", v)
		}
	}
}

func TestGPVarianceGrowsAwayFromData(t *testing.T) {
	x := gridX(0, 1)
	y := []float64{0, 1}
	g, err := Fit(x, y, RBF{LengthScale: 0.5, Variance: 1}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	_, vNear := g.Predict([]float64{0.5})
	_, vFar := g.Predict([]float64{5})
	if vFar <= vNear {
		t.Errorf("variance should grow away from data: near=%v far=%v", vNear, vFar)
	}
	// Far from all data the posterior reverts to the prior.
	muFar, _ := g.Predict([]float64{100})
	if math.Abs(muFar-0.5) > 1e-6 { // prior mean = mean(y) = 0.5
		t.Errorf("far mean = %v, want prior mean 0.5", muFar)
	}
	if math.Abs(vFar-1) > 0.5 {
		t.Errorf("far variance = %v, want ≈ prior variance", vFar)
	}
}

func TestGPRecoversSmoothFunction(t *testing.T) {
	r := xrand.New(1)
	n := 40
	x := tensor.NewMatrix(n, 1)
	y := make([]float64, n)
	f := func(v float64) float64 { return math.Sin(3*v) + 0.5*v }
	for i := 0; i < n; i++ {
		v := r.Uniform(0, 3)
		x.Set(i, 0, v)
		y[i] = f(v) + 0.01*r.NormFloat64()
	}
	g, err := FitMLE(x, y, []float64{0.1, 0.3, 1, 3}, []float64{1e-4, 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for v := 0.2; v < 2.8; v += 0.1 {
		mu, _ := g.Predict([]float64{v})
		if e := math.Abs(mu - f(v)); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.2 {
		t.Errorf("GP max error %v on smooth function, want < 0.2", maxErr)
	}
}

func TestFitMLEPrefersBetterLengthScale(t *testing.T) {
	// Data from a long-lengthscale function: MLE should not pick the
	// shortest scale available.
	r := xrand.New(2)
	n := 30
	x := tensor.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := r.Uniform(0, 10)
		x.Set(i, 0, v)
		y[i] = 0.3*v + 0.001*r.NormFloat64()
	}
	g, err := FitMLE(x, y, []float64{0.01, 5}, []float64{1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if g.Kernel.LengthScale != 5 {
		t.Errorf("MLE picked lengthscale %v for near-linear data, want 5", g.Kernel.LengthScale)
	}
}

func TestExpectedImprovementProperties(t *testing.T) {
	x := gridX(0, 1, 2)
	y := []float64{1, 0.5, 1}
	g, err := Fit(x, y, RBF{LengthScale: 0.7, Variance: 1}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	fBest := 0.5
	// EI is non-negative everywhere.
	for v := -1.0; v < 4; v += 0.2 {
		if ei := g.ExpectedImprovement([]float64{v}, fBest); ei < 0 {
			t.Fatalf("EI negative at %v: %v", v, ei)
		}
	}
	// EI at a training point equal to the best value ≈ 0 (no improvement,
	// no uncertainty).
	if ei := g.ExpectedImprovement([]float64{1}, fBest); ei > 1e-3 {
		t.Errorf("EI at best observed point = %v, want ≈0", ei)
	}
	// EI in unexplored territory is positive.
	if ei := g.ExpectedImprovement([]float64{10}, fBest); ei <= 0 {
		t.Errorf("EI far away = %v, want > 0", ei)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(gridX(1, 2), []float64{1}, RBF{1, 1}, 1e-6); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Fit(gridX(1, 2), []float64{1, 2}, RBF{1, 1}, 0); err == nil {
		t.Error("zero noise should error")
	}
	if _, err := Fit(tensor.NewMatrix(0, 1), nil, RBF{1, 1}, 1e-6); err == nil {
		t.Error("empty fit should error")
	}
}

func TestLogMarginalLikelihoodSane(t *testing.T) {
	x := gridX(0, 1, 2, 3)
	y := []float64{0, 0.1, 0.2, 0.3}
	good, err := Fit(x, y, RBF{LengthScale: 2, Variance: 0.1}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Fit(x, y, RBF{LengthScale: 0.001, Variance: 0.1}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if good.lml <= bad.lml {
		t.Errorf("smooth-data LML ordering wrong: good=%v bad=%v", good.lml, bad.lml)
	}
}
