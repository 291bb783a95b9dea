package compare

import (
	"math"
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

func testPairs(r *xrand.Source, n int) []stats.Pair {
	p := make([]stats.Pair, n)
	for i := range p {
		base := r.NormFloat64()
		a := base + 0.4 + 0.3*r.NormFloat64()
		b := base + 0.3*r.NormFloat64()
		if r.Bernoulli(0.15) {
			b = a // exercise the tie arm
		}
		p[i] = stats.Pair{A: a, B: b}
	}
	return p
}

// TestAnalysisStateBitIdentical: feeding pairs batch by batch matches the
// one-shot Evaluate of the full sequence bit for bit, for any chunking.
func TestAnalysisStateBitIdentical(t *testing.T) {
	crit := PAB{Gamma: 0.75, Level: 0.95}
	r := xrand.New(17)
	for trial := 0; trial < 5; trial++ {
		pairs := testPairs(r, 60+r.Intn(60))
		ref, err := crit.Evaluate(pairs)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 3, 8, len(pairs)} {
			st, err := crit.NewAnalysis()
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(pairs); lo += chunk {
				st.Extend(pairs[lo:min(lo+chunk, len(pairs))])
			}
			res, err := st.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			if res != ref || st.N() != len(pairs) {
				t.Fatalf("trial %d chunk %d: %+v (n=%d) != one-shot %+v", trial, chunk, res, st.N(), ref)
			}
		}
	}
}

// pairedPAB is the paper's Equation 9 computed in one pass: the proportion
// of pairs where A strictly outperforms B, with ties counted half.
func pairedPAB(a, b []float64) float64 {
	wins := 0.0
	for i := range a {
		switch {
		case a[i] > b[i]:
			wins++
		case a[i] == b[i]:
			wins += 0.5
		}
	}
	return wins / float64(len(a))
}

// TestAnalysisStatePointMatchesKernel: the running point estimate and the
// means are bit-identical to their one-shot counterparts (pairedPAB and
// stats.Mean).
func TestAnalysisStatePointMatchesKernel(t *testing.T) {
	r := xrand.New(23)
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(40)
		pairs := testPairs(r, n)
		st, err := PAB{}.NewAnalysis()
		if err != nil {
			t.Fatal(err)
		}
		st.Extend(pairs)
		a := make([]float64, n)
		b := make([]float64, n)
		for i, p := range pairs {
			a[i], b[i] = p.A, p.B
		}
		if got, want := st.Point(), pairedPAB(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Point() = %v, pairedPAB = %v", got, want)
		}
		ma, mb := st.Means()
		if math.Float64bits(ma) != math.Float64bits(stats.Mean(a)) ||
			math.Float64bits(mb) != math.Float64bits(stats.Mean(b)) {
			t.Fatalf("Means() = (%v, %v), want (%v, %v)", ma, mb, stats.Mean(a), stats.Mean(b))
		}
	}
}

// TestAnalysisStateDecisions: the running three-zone decision on clearly
// separated and clearly tied data, and its error on too few pairs.
func TestAnalysisStateDecisions(t *testing.T) {
	r := xrand.New(37)
	crit := PAB{Gamma: 0.75}

	sep := make([]stats.Pair, 30)
	for i := range sep {
		sep[i] = stats.Pair{A: 1 + 0.05*r.NormFloat64(), B: 0.05 * r.NormFloat64()}
	}
	st, _ := crit.NewAnalysis()
	st.Extend(sep)
	res, err := st.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != SignificantAndMeaningful {
		t.Fatalf("separated pairs: %v, want significant and meaningful", res.Decision)
	}

	tied := make([]stats.Pair, 30)
	for i := range tied {
		v := r.NormFloat64()
		tied[i] = stats.Pair{A: v + 0.01*r.NormFloat64(), B: v + 0.01*r.NormFloat64()}
	}
	st2, _ := crit.NewAnalysis()
	st2.Extend(tied)
	res2, err := st2.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Decision == SignificantAndMeaningful {
		t.Fatalf("noise-only pairs judged meaningful: %+v", res2)
	}

	// Too few pairs is an error, as on the one-shot path, and so is an
	// invalid criterion.
	empty, _ := crit.NewAnalysis()
	if _, err := empty.Evaluate(); err == nil {
		t.Fatal("Evaluate accepted an empty state")
	}
	if _, err := (PAB{Bootstrap: -1}).NewAnalysis(); err == nil {
		t.Fatal("NewAnalysis accepted an invalid criterion")
	}
}
