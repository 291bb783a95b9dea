package stats

import "math"

// The exact paired P(A>B) interval. A paired bootstrap resample draws n
// pairs with replacement, so it sees the sample only through its win, tie
// and loss counts (w, t, l): the resample's counts are
// (K_w, K_t, K_l) ~ Multinomial(n; w/n, t/n, l/n), and its P(A>B) is
// S/(2n) with S = 2K_w + K_t. The percentile interval of K resamples is a
// Monte Carlo estimate of a pair of quantiles of S, which this file
// computes directly.

// PABCountsCI returns the percentile-bootstrap confidence interval of the
// paired P(A>B) (Appendix C.5) in the limit of infinitely many resamples,
// from the win, tie and loss counts of the pairs. With n = w + t + l and
// α = 1 − level, the bounds are Q(α/2)/(2n) and Q(1−α/2)/(2n), where
// Q(p) = min{s ∈ 0..2n : P(S ≤ s) ≥ p}; this is the limit of the type-7
// percentile interval of (2K_w + K_t)/(2n) over K multinomial resamples.
// It draws no random numbers, so it needs no seed and no resample count.
//
// Without ties S = 2K_w with K_w ~ Binomial(n, w/n), and each bound is a
// binomial quantile found by bisecting RegIncBeta (O(log n) calls). With
// ties S's distribution comes from the coefficients of
// (l/n + (t/n)·z + (w/n)·z²)ⁿ, walked by their three-term recurrence over
// the O(√n) values of S that carry the mass. Both are exact up to
// rounding: a bound can move only where P(S ≤ s) lands within about 1e-11
// of its target probability.
//
// Degenerate input (n = 0, a negative count, level outside (0, 1)) yields
// a NaN CI.
func PABCountsCI(w, t, l int, level float64) CI {
	n := w + t + l
	if w < 0 || t < 0 || l < 0 || badBootstrap(n, 1, level) {
		return nanCI(level)
	}
	alpha := 1 - level
	lo, hi := winsX2Quantiles(w, t, l, alpha/2, 1-alpha/2)
	return CI{Lo: float64(lo) / float64(2*n), Hi: float64(hi) / float64(2*n), Level: level}
}

// winsX2Quantiles returns Q(pLo) and Q(pHi) for S = 2K_w + K_t. When a
// count is zero S reduces to one binomial: S = 2K_w without ties, K_t
// without wins and n + K_w without losses.
func winsX2Quantiles(w, t, l int, pLo, pHi float64) (int, int) {
	n := w + t + l
	switch {
	case t == 0:
		return 2 * binomQuantile(n, w, pLo), 2 * binomQuantile(n, w, pHi)
	case w == 0:
		return binomQuantile(n, t, pLo), binomQuantile(n, t, pHi)
	case l == 0:
		return n + binomQuantile(n, w, pLo), n + binomQuantile(n, w, pHi)
	}
	d := newTrinomial(w, t, l)
	return d.quantile(pLo), d.quantile(pHi)
}

// binomQuantile returns min{j : P(X ≤ j) ≥ p} for X ~ Binomial(n, k/n),
// 0 < p < 1, bisecting the CDF P(X ≤ j) = I_{1−k/n}(n−j, j+1).
func binomQuantile(n, k int, p float64) int {
	switch k {
	case 0:
		return 0
	case n:
		return n
	}
	x := float64(n-k) / float64(n)
	lo, hi := -1, n // P(X ≤ lo) < p ≤ P(X ≤ hi)
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if RegIncBeta(float64(n-mid), float64(mid+1), x) >= p {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// trinomial is the distribution of S = 2K_w + K_t when w, t and l are all
// positive. Its pmf is the coefficient sequence c_0..c_{2n} of
// (a + b·z + c·z²)ⁿ with (a, b, c) = (l, t, w)/n, which satisfies
//
//	a·(s+1)·c_{s+1} = (n−s)·b·c_s + (2n−s+1)·c·c_{s−1}.
//
// Walked upward the recurrence adds positive terms for s < n and is stable
// there; past n it subtracts and amplifies rounding. So the values below n
// are walked upward, and those above n downward, as the upward walk of the
// mirror 2n − S, whose polynomial swaps a and c. Each walk starts at an
// edge of the window [lo, hi] outside which S has less than 2⁻⁶⁴ of its
// mass on either side, and both end at m, the point of the window nearest
// n, where their common coefficient c_m puts them on one scale.
type trinomial struct {
	n       int
	a, b, c float64
	lo, m   int // the window's lower edge, and the meeting point
	hi      int
	// The masses Σ_{lo≤s<m} c_s and Σ_{m<s≤hi} c_s, and their total with
	// c_m, in units of c_m.
	left, right, total xf
	// c_m in the units of the upward and the mirrored walk.
	upM, downM xf
}

func newTrinomial(w, t, l int) trinomial {
	n := w + t + l
	fn := float64(n)
	d := trinomial{n: n, a: float64(l) / fn, b: float64(t) / fn, c: float64(w) / fn}
	// Hoeffding: each pair adds 0, 1 or 2 to S, so
	// P(|S − E S| ≥ r) ≤ exp(−r²/(2n)) on each side, which is 2⁻⁶⁴ at
	// r² = 128·ln2·n.
	r := int(math.Ceil(math.Sqrt(128 * math.Ln2 * fn)))
	mean := 2*w + t
	d.lo, d.hi = max(0, mean-r), min(2*n, mean+r)
	d.m = min(max(n, d.lo), d.hi)
	upSum, upM, _ := d.walk(false, d.lo, d.m, xf{})
	downSum, downM, _ := d.walk(true, 2*n-d.hi, 2*n-d.m, xf{})
	d.upM, d.downM = upM, downM
	d.left = upSum.sub(upM).div(upM)
	d.right = downSum.sub(downM).div(downM)
	d.total = d.left.add(xf{m: 1}).add(d.right)
	return d
}

// quantile returns min{s : P(S ≤ s) ≥ p}. If the mass below m reaches
// p·total, it walks up from lo to the first s whose running mass
// Σ_{j≤s} c_j reaches p·total. Otherwise it walks the mirror up from hi:
// the answer is the last s whose upper mass Σ_{j>s} c_j stays within
// (1−p)·total.
func (d *trinomial) quantile(p float64) int {
	target := d.total.scale(p)
	if !d.left.less(target) {
		_, _, s := d.walk(false, d.lo, d.m, target.mul(d.upM))
		return s
	}
	// The mirrored walk's running mass at mirror index j is
	// Σ_{s ≥ 2n−j} c_s; the first j where it exceeds (1−p)·total puts the
	// answer at 2n − j.
	_, _, j := d.walk(true, 2*d.n-d.hi, 2*d.n-d.m, d.total.scale(1-p).mul(d.downM).nextUp())
	return 2*d.n - j
}

// coefs returns the polynomial's coefficients in walk order: (a, b, c),
// or (c, b, a) for the mirror.
func (d *trinomial) coefs(mirror bool) (a, b, c float64) {
	if mirror {
		return d.c, d.b, d.a
	}
	return d.a, d.b, d.c
}

// walk steps the recurrence from s = from to s = stop (mirror swaps a and
// c), and returns the running mass Σ_{from≤s≤stop} c_s and c_stop, in
// units fixed by the starting pair of coefficients. With a positive
// target it stops early at the first s whose running mass reaches the
// target and returns that s as hit (stop when it is never reached).
//
// The terms span far more than float64's range (c_0 = aⁿ underflows for
// large n), so cur and prev carry a shared binary exponent, renormalised
// whenever cur leaves [2⁻⁵¹², 2⁵¹²]; the running mass of each span between
// renormalisations is folded into an xf at its exponent.
func (d *trinomial) walk(mirror bool, from, stop int, target xf) (sum, last xf, hit int) {
	a, _, c := d.coefs(mirror)
	rb, rc := d.b/a, c/a
	n := d.n
	const hiBand, loBand = 0x1p512, 0x1p-512
	prev, cur := 0.0, 1.0
	if from > 0 {
		prev, cur = d.start(mirror, from)
	}
	var (
		exp    = 0
		run    = 0.0          // Σ of the current span, in units of 2^exp
		folded = xf{}         // Σ of the closed spans
		seek   = target.m > 0 // stop at the target
		want   = math.Inf(1)  // target − folded, in units of 2^exp
	)
	if seek {
		want = target.at(0)
	}
	s := from // the index of cur
	for {
		run += cur
		if seek && run >= want {
			return folded.add(xf{run, exp}), xf{cur, exp}, s
		}
		if s == stop {
			break
		}
		inv := 1 / float64(s+1)
		next := (float64(n-s)*rb*cur + float64(2*n-s+1)*rc*prev) * inv
		prev, cur = cur, next
		s++
		if cur > hiBand || cur < loBand {
			folded = folded.add(xf{run, exp})
			run = 0
			_, k := math.Frexp(cur)
			cur, prev = math.Ldexp(cur, -k), math.Ldexp(prev, -k)
			exp += k
			if seek {
				want = target.sub(folded).at(exp)
			}
		}
	}
	return folded.add(xf{run, exp}), xf{cur, exp}, stop
}

// start returns c_{s−1} and c_s (s ≥ 1) of the walk's polynomial, up to a
// common factor, summed directly over the split of s into z² and z
// factors: c_s = Σ_k T(s, k) with
//
//	T(s, k) = n!/(k!·(s−2k)!·(n−s+k)!) · c^k · b^(s−2k) · a^(n−s+k).
//
// The terms of row s−1 are log-concave in k, so they are generated from
// their largest, set to 1, by their ratio in k, and each is carried to row
// s by the ratio T(s, k)/T(s−1, k) = (n−s+1+k)/(s−2k) · b/a. The sums stop
// in each direction once both rows' terms are falling and below 2⁻⁶⁴ of
// their sums.
func (d *trinomial) start(mirror bool, s int) (prevCoef, coef float64) {
	a, b, c := d.coefs(mirror)
	n, m := d.n, s-1
	acb := a * c / (b * b)
	ratio := func(k int) float64 { // T(m, k+1)/T(m, k)
		return float64(m-2*k) * float64(m-2*k-1) / (float64(k+1) * float64(n-m+k+1)) * acb
	}
	lift := func(k int) float64 { // T(s, k)/T(m, k)
		return float64(n-s+1+k) / float64(s-2*k) * (b / a)
	}
	kmin, kmax := max(0, m-n), m/2
	lo, hi := kmin, kmax // the mode: the first k whose ratio is below 1
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); ratio(mid) < 1 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	const tiny = 0x1p-64
	mode := lo
	prevCoef, coef = 1, lift(mode)
	for _, dir := range [2]int{1, -1} {
		tm, ts := 1.0, lift(mode) // T(m, k) and T(s, k)
		k := mode
		for k+dir >= kmin && k+dir <= kmax {
			if dir > 0 {
				tm *= ratio(k)
			} else {
				tm /= ratio(k - 1)
			}
			k += dir
			next := tm * lift(k)
			prevCoef += tm
			coef += next
			falling := next < ts
			ts = next
			if falling && tm < tiny*prevCoef && next < tiny*coef {
				break
			}
		}
		if dir > 0 && k == kmax && s%2 == 0 {
			// Row s has one more term, k = s/2: no ties.
			coef += ts * 2 / (float64(k+1) * float64(n-s+k+1)) * acb
		}
	}
	return prevCoef, coef
}

// xf is m·2^e: a float64 with an unbounded exponent, for the masses of
// the trinomial walk, which over- and underflow float64.
type xf struct {
	m float64
	e int
}

// norm moves m's exponent into e.
func (x xf) norm() xf {
	if x.m == 0 || math.IsInf(x.m, 0) || math.IsNaN(x.m) {
		return xf{m: x.m}
	}
	f, k := math.Frexp(x.m)
	return xf{f, x.e + k}
}

// at returns x in units of 2^e as a float64 (±Inf or 0 when out of range).
func (x xf) at(e int) float64 {
	d := x.e - e
	switch {
	case x.m == 0:
		return 0
	case d > 2100:
		return math.Copysign(math.Inf(1), x.m)
	case d < -2100:
		return 0
	}
	return math.Ldexp(x.m, d)
}

func (x xf) add(y xf) xf {
	switch {
	case x.m == 0:
		return y.norm()
	case y.m == 0:
		return x.norm()
	}
	x, y = x.norm(), y.norm()
	if x.e < y.e {
		x, y = y, x
	}
	return xf{x.m + y.at(x.e), x.e}.norm()
}

func (x xf) sub(y xf) xf        { return x.add(xf{-y.m, y.e}) }
func (x xf) mul(y xf) xf        { return xf{x.m * y.m, x.e + y.e}.norm() }
func (x xf) div(y xf) xf        { return xf{x.m / y.m, x.e - y.e}.norm() }
func (x xf) scale(f float64) xf { return xf{x.m * f, x.e}.norm() }

// less reports x < y for non-negative x and y.
func (x xf) less(y xf) bool {
	x, y = x.norm(), y.norm()
	switch {
	case x.m == 0 || y.m == 0:
		return x.m < y.m
	case x.e != y.e:
		return x.e < y.e
	}
	return x.m < y.m
}

// nextUp returns the smallest xf above x, so that a ≥ test against it is
// a > test against x.
func (x xf) nextUp() xf {
	x = x.norm()
	return xf{math.Nextafter(x.m, math.Inf(1)), x.e}
}
