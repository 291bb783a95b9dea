package compare

import (
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

func TestCriterionNames(t *testing.T) {
	cases := map[string]Criterion{
		"single-point":    SinglePoint{},
		"average":         AverageThreshold{},
		"paired-t":        PairedT{},
		"prob-outperform": PAB{},
		"oracle":          Oracle{},
	}
	for want, c := range cases {
		if c.Name() != want {
			t.Errorf("Name() = %q, want %q", c.Name(), want)
		}
	}
}

func TestPABDetectsInterface(t *testing.T) {
	r := xrand.New(1)
	pairs := make([]stats.Pair, 40)
	for i := range pairs {
		pairs[i] = stats.Pair{A: r.Normal(3, 1), B: r.NormFloat64()}
	}
	if !(PAB{}).Detects(pairs) {
		t.Error("PAB.Detects missed strong dominance")
	}
	// Too few pairs: Detects must be false, not panic.
	if (PAB{}).Detects([]stats.Pair{{A: 1, B: 0}}) {
		t.Error("single pair should not detect")
	}
}

func TestPABCustomLevel(t *testing.T) {
	c := PAB{Level: 0.9, Gamma: 0.6, Bootstrap: 300}
	if c.level() != 0.9 || c.gamma() != 0.6 || c.boots() != 300 {
		t.Error("explicit settings ignored")
	}
	r := xrand.New(2)
	pairs := make([]stats.Pair, 30)
	for i := range pairs {
		pairs[i] = stats.Pair{A: r.Normal(2, 1), B: r.NormFloat64()}
	}
	res, err := c.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if res.CI.Level != 0.9 || res.Gamma != 0.6 {
		t.Errorf("result carries wrong settings: %+v", res)
	}
}

func TestOracleEmptyPairs(t *testing.T) {
	if (Oracle{Sigma: 1}).Detects(nil) {
		t.Error("empty pairs should not detect")
	}
}
