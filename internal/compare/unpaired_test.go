package compare

import (
	"testing"

	"varbench/internal/xrand"
)

func TestEvaluateUnpairedDominance(t *testing.T) {
	r := xrand.New(1)
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i] = r.Normal(2, 1)
		b[i] = r.NormFloat64()
	}
	res, err := PAB{}.EvaluateUnpairedSharded(a, b, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != SignificantAndMeaningful {
		t.Errorf("2σ dominance: %v (PAB=%v CI=%+v)", res.Decision, res.PAB, res.CI)
	}
	if res.PAB < 0.85 {
		t.Errorf("PAB = %v, want ≈ Φ(2/√2) ≈ 0.92", res.PAB)
	}
}

func TestEvaluateUnpairedNull(t *testing.T) {
	r := xrand.New(2)
	const trials = 60
	fp := 0
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 30)
		b := make([]float64, 30)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		res, err := PAB{Bootstrap: 200}.EvaluateUnpairedSharded(a, b, uint64(trial), 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision == SignificantAndMeaningful {
			fp++
		}
	}
	if rate := float64(fp) / trials; rate > 0.15 {
		t.Errorf("unpaired null FP rate = %v", rate)
	}
}

func TestEvaluateUnpairedUnequalSizes(t *testing.T) {
	r := xrand.New(3)
	a := make([]float64, 15)
	b := make([]float64, 50)
	for i := range a {
		a[i] = r.Normal(3, 1)
	}
	for i := range b {
		b[i] = r.NormFloat64()
	}
	res, err := PAB{}.EvaluateUnpairedSharded(a, b, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.PAB < 0.9 {
		t.Errorf("unequal-size dominance PAB = %v", res.PAB)
	}
}

func TestEvaluateUnpairedErrors(t *testing.T) {
	if _, err := (PAB{}).EvaluateUnpairedSharded([]float64{1}, []float64{1, 2}, 1, 1); err == nil {
		t.Error("single-measure sample accepted")
	}
}

func TestUnpairedLessPowerfulThanPaired(t *testing.T) {
	// With strong shared noise, pairing should detect what the unpaired
	// analysis cannot.
	r := xrand.New(4)
	n := 29
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		shared := r.NormFloat64() * 0.2 // dominant shared component
		a[i] = shared + 0.02 + 0.005*r.NormFloat64()
		b[i] = shared + 0.005*r.NormFloat64()
	}
	pairs, err := Pairs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	paired, err := PAB{}.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	unpaired, err := PAB{}.EvaluateUnpairedSharded(a, b, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if paired.Decision != SignificantAndMeaningful {
		t.Errorf("paired analysis missed the consistent improvement: %+v", paired)
	}
	if unpaired.PAB > paired.PAB {
		t.Errorf("unpaired PAB %v should not exceed paired %v under shared noise",
			unpaired.PAB, paired.PAB)
	}
}
