package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"varbench/internal/xrand"
)

// winsX2PMF returns P(S = s), s = 0..2n, for S = 2K_w + K_t under
// Multinomial(n; w/n, t/n, l/n), by n convolutions with one pair's
// (l, t, w)/n: quadratic in n, positive terms only.
func winsX2PMF(w, t, l int) []float64 {
	n := w + t + l
	a, b, c := float64(l)/float64(n), float64(t)/float64(n), float64(w)/float64(n)
	pmf := make([]float64, 2*n+1)
	next := make([]float64, 2*n+1)
	pmf[0] = 1
	for i := 1; i <= n; i++ {
		for s := 0; s <= 2*i; s++ {
			v := a * pmf[s]
			if s >= 1 {
				v += b * pmf[s-1]
			}
			if s >= 2 {
				v += c * pmf[s-2]
			}
			next[s] = v
		}
		pmf, next = next, pmf
	}
	return pmf
}

// quantileOf returns min{s : Σ_{j≤s} pmf[j] ≥ p}.
func quantileOf(pmf []float64, p float64) int {
	cum := 0.0
	for s, v := range pmf {
		if cum += v; cum >= p {
			return s
		}
	}
	return len(pmf) - 1
}

// TestPABCountsCIPins pins the exact interval on the cases the paired
// protocol meets, including the Binomial(29, 22/29) quantiles without ties
// and the golden paired-{a,b}.csv counts (18 wins, 12 losses).
func TestPABCountsCIPins(t *testing.T) {
	cases := []struct {
		w, t, l int
		level   float64
		lo, hi  float64 // to 4 decimals
	}{
		{22, 0, 7, 0.95, 0.5862, 0.8966},
		{20, 4, 5, 0.95, 0.6034, 0.8966},
		{18, 0, 12, 0.95, 0.4333, 0.7667},
		{29, 0, 0, 0.95, 1, 1},
		{0, 29, 0, 0.95, 0.5, 0.5},
		{0, 0, 29, 0.95, 0, 0},
		{1, 0, 1, 0.95, 0, 1},
		{1, 1, 0, 0.95, 0.5, 1},
		{0, 1, 1, 0.95, 0, 0.5},
		{2, 0, 0, 0.95, 1, 1},
	}
	for _, c := range cases {
		ci := PABCountsCI(c.w, c.t, c.l, c.level)
		if math.Abs(ci.Lo-c.lo) > 5e-5 || math.Abs(ci.Hi-c.hi) > 5e-5 || ci.Level != c.level {
			t.Errorf("PABCountsCI(%d, %d, %d, %v) = %+v, want [%.4f, %.4f]", c.w, c.t, c.l, c.level, ci, c.lo, c.hi)
		}
	}
}

// TestPABCountsCIDegenerate: no pairs, a negative count or a level outside
// (0, 1) yield the NaN CI with the level echoed back.
func TestPABCountsCIDegenerate(t *testing.T) {
	for _, c := range []struct {
		w, t, l int
		level   float64
	}{
		{0, 0, 0, 0.95}, {-1, 2, 2, 0.95}, {3, 0, 1, 0}, {3, 0, 1, 1}, {3, 1, 1, -0.5}, {3, 1, 1, math.NaN()},
	} {
		ci := PABCountsCI(c.w, c.t, c.l, c.level)
		if !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) || !(ci.Level == c.level || math.IsNaN(c.level)) {
			t.Errorf("PABCountsCI(%d, %d, %d, %v) = %+v, want the NaN CI", c.w, c.t, c.l, c.level, ci)
		}
	}
}

// TestPABCountsCIMatchesConvolution checks every (w, t, l) with n ≤ 40,
// and random ones up to n = 2,040, at three levels against quantiles of
// the directly convolved pmf of S. Both sides are exact up to rounding, so
// they must agree to the atom. Past n ≈ 90 the walks start inside [0, 2n]
// at a window edge, so the random cases include few ties, few losses and
// few wins, where the start's sum over splits peaks at an end.
func TestPABCountsCIMatchesConvolution(t *testing.T) {
	check := func(w, tie, l int, level float64) {
		t.Helper()
		n := w + tie + l
		pmf := winsX2PMF(w, tie, l)
		alpha := 1 - level
		lo, hi := quantileOf(pmf, alpha/2), quantileOf(pmf, 1-alpha/2)
		want := CI{Lo: float64(lo) / float64(2*n), Hi: float64(hi) / float64(2*n), Level: level}
		if got := PABCountsCI(w, tie, l, level); got != want {
			t.Errorf("PABCountsCI(%d, %d, %d, %v) = %+v, want %+v", w, tie, l, level, got, want)
		}
	}
	levels := []float64{0.5, 0.9, 0.95}
	for n := 1; n <= 40; n++ {
		for w := 0; w <= n; w++ {
			for tie := 0; w+tie <= n; tie++ {
				for _, level := range levels {
					check(w, tie, n-w-tie, level)
				}
			}
		}
	}
	r := xrand.New(21)
	for i := 0; i < 120; i++ {
		n := 41 + r.Intn(2000)
		few := 1 + r.Intn(3)
		var w, tie int
		switch i % 4 {
		case 0:
			w = r.Intn(n + 1)
			tie = r.Intn(n - w + 1)
		case 1: // few ties
			tie = few
			w = r.Intn(n - tie + 1)
		case 2: // few losses
			tie = 1 + r.Intn(n-few)
			w = n - few - tie
		case 3: // few wins
			w = few
			tie = 1 + r.Intn(n-w)
		}
		check(w, tie, n-w-tie, levels[i%len(levels)])
	}
}

// multinomialCI is the reference the exact interval is the limit of: K
// paired resamples of counts (w, t, l), each drawn as K_w ~ Binomial(n,
// w/n) then K_t ~ Binomial(n − K_w, t/(t+l)) by inversion of tabulated
// CDFs, and the type-7 percentile interval of (2K_w + K_t)/(2n).
func multinomialCI(w, tie, l, k int, level float64, r *xrand.Source) CI {
	n := w + tie + l
	binomCDF := func(m int, p float64) []float64 {
		cdf := make([]float64, m+1)
		pmf := make([]float64, m+1)
		for j := 0; j <= m; j++ {
			pmf[j] = math.Exp(LogChoose(m, j) + xlogy(float64(j), p) + xlogy(float64(m-j), 1-p))
		}
		acc := 0.0
		for j, v := range pmf {
			acc += v
			cdf[j] = acc
		}
		return cdf
	}
	draw := func(cdf []float64) int {
		u := r.Float64() * cdf[len(cdf)-1]
		return sort.Search(len(cdf), func(j int) bool { return cdf[j] > u })
	}
	wins := binomCDF(n, float64(w)/float64(n))
	ties := make(map[int][]float64)
	counts := make([]int, 2*n+1)
	for i := 0; i < k; i++ {
		kw := draw(wins)
		kt := 0
		if tie > 0 && kw < n {
			cdf, ok := ties[kw]
			if !ok {
				cdf = binomCDF(n-kw, float64(tie)/float64(tie+l))
				ties[kw] = cdf
			}
			kt = draw(cdf)
		}
		counts[2*kw+kt]++
	}
	// Type-7 percentile over the sorted resampled statistics, read off the
	// histogram.
	order := func(i int) float64 {
		for s, c := range counts {
			if i < c {
				return float64(s) / float64(2*n)
			}
			i -= c
		}
		return 1
	}
	q := func(p float64) float64 {
		h := float64(k-1) * p
		i := int(math.Floor(h))
		lo := order(i)
		if i+1 >= k {
			return lo
		}
		return lo + (h-float64(i))*(order(i+1)-lo)
	}
	alpha := 1 - level
	return CI{Lo: q(alpha / 2), Hi: q(1 - alpha/2), Level: level}
}

func xlogy(x, y float64) float64 {
	if x == 0 {
		return 0
	}
	return x * math.Log(y)
}

// TestPABCountsCIMatchesResampler is the property the interval is defined
// by: on 200 random (w, t, l) with n ≤ 600, half of them with ties, each
// bound lies within one atom of a K = 200,000 multinomial bootstrap's. An
// atom is the spacing of the statistic's support: 1/(2n) with ties, and
// 1/n without, where S = 2K_w takes even values only. Where P(S ≤ Q)
// lands within Monte Carlo error (±0.00035 at K = 200,000) of the target,
// the resampler reads the neighbouring atom.
func TestPABCountsCIMatchesResampler(t *testing.T) {
	const k = 200_000
	r := xrand.New(20)
	for i := 0; i < 200; i++ {
		n := 2 + r.Intn(599)
		w := r.Intn(n + 1)
		tie := 0
		if i%2 == 1 {
			tie = r.Intn(n - w + 1)
		}
		l := n - w - tie
		got := PABCountsCI(w, tie, l, 0.95)
		ref := multinomialCI(w, tie, l, k, 0.95, r)
		atom := 1 / float64(2*n)
		if tie == 0 {
			atom = 1 / float64(n)
		}
		if math.Abs(got.Lo-ref.Lo) > atom+1e-12 || math.Abs(got.Hi-ref.Hi) > atom+1e-12 {
			t.Errorf("(%d, %d, %d): exact %+v, K=%d resampler %+v (atom %.5f)", w, tie, l, got, k, ref, atom)
		}
	}
}

// naiveWinsX2CDF is P(S ≤ s) as the direct sum over K_w of binomial pmf
// terms times the conditional tie CDF, one RegIncBeta per term, over the
// K_w window that carries the mass.
func naiveWinsX2CDF(w, tie, l, s int) float64 {
	n := w + tie + l
	p := float64(w) / float64(n)
	sd := math.Sqrt(float64(n) * p * (1 - p))
	lo := max(0, int(float64(w)-12*sd))
	hi := min(n, int(float64(w)+12*sd)+1)
	x := float64(l) / float64(tie+l) // 1 − P(tie | not a win)
	sum := 0.0
	for kw := lo; kw <= hi; kw++ {
		j := s - 2*kw // the most ties S ≤ s allows
		if j < 0 {
			break
		}
		m := n - kw
		cond := 1.0
		if j < m {
			cond = RegIncBeta(float64(m-j), float64(j+1), x)
		}
		sum += math.Exp(LogChoose(n, kw)+xlogy(float64(kw), p)+xlogy(float64(n-kw), 1-p)) * cond
	}
	return sum
}

// TestPABCountsCITiePathLargeN: at n = 200,000 with 40,000 ties, each
// bound of the recurrence walk is the quantile the naive RegIncBeta sum
// puts there: P(S ≤ Q−1) < p ≤ P(S ≤ Q).
func TestPABCountsCITiePathLargeN(t *testing.T) {
	for _, c := range [][3]int{{100_000, 40_000, 60_000}, {60_000, 40_000, 100_000}, {150_000, 40_000, 10_000}} {
		w, tie, l := c[0], c[1], c[2]
		n := w + tie + l
		ci := PABCountsCI(w, tie, l, 0.95)
		for _, b := range []struct {
			q float64
			p float64
		}{{ci.Lo, 0.025}, {ci.Hi, 0.975}} {
			s := int(math.Round(b.q * float64(2*n)))
			below, at := naiveWinsX2CDF(w, tie, l, s-1), naiveWinsX2CDF(w, tie, l, s)
			if !(below < b.p && b.p <= at) {
				t.Errorf("(%d, %d, %d): bound %d/%d has P(S ≤ s−1) = %.12f, P(S ≤ s) = %.12f around p = %v",
					w, tie, l, s, 2*n, below, at, b.p)
			}
		}
	}
}

// BenchmarkPABCountsCI times one exact interval on the sizes the paired
// entry points meet: Noether's n = 29, a 520-pair run with ties, and
// 200,000 pairs (a per-item benchmark) without and with ties.
func BenchmarkPABCountsCI(b *testing.B) {
	for _, c := range []struct {
		name    string
		w, t, l int
	}{
		{"n29-tiefree", 22, 0, 7},
		{"n520-ties", 300, 40, 180},
		{"n200000-tiefree", 120_000, 0, 80_000},
		{"n200000-ties40000", 100_000, 40_000, 60_000},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PABCountsCI(c.w, c.t, c.l, 0.95)
			}
		})
	}
}

func ExamplePABCountsCI() {
	// 18 wins, no ties and 12 losses: the golden paired-{a,b}.csv.
	ci := PABCountsCI(18, 0, 12, 0.95)
	fmt.Printf("[%.3f, %.3f]\n", ci.Lo, ci.Hi)
	// Output: [0.433, 0.767]
}
