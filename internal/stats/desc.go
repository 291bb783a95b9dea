package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, NaN for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the unbiased sample variance (divides by n-1),
// NaN for fewer than two values.
func Variance(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(n-1)
}

// Std returns the sample standard deviation.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// StdErr returns the standard error of the mean, Std/√n.
func StdErr(x []float64) float64 {
	return Std(x) / math.Sqrt(float64(len(x)))
}

// StdOfStd returns the approximate standard deviation of the sample standard
// deviation of a normal distribution estimated on n samples: σ/√(2(n-1)).
// The paper uses this for the shaded uncertainty bands of Figures 5 and H.4.
func StdOfStd(sigma float64, n int) float64 {
	if n < 2 {
		return math.NaN()
	}
	return sigma / math.Sqrt(2*float64(n-1))
}

// MinMax returns the extrema of x, (NaN, NaN) for empty input.
func MinMax(x []float64) (min, max float64) {
	if len(x) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = x[0], x[0]
	for _, v := range x[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Covariance returns the unbiased sample covariance of paired samples.
func Covariance(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	s := 0.0
	for i := range x {
		s += (x[i] - mx) * (y[i] - my)
	}
	return s / float64(len(x)-1)
}

// PearsonCorr returns the Pearson correlation coefficient of paired samples.
func PearsonCorr(x, y []float64) float64 {
	sx, sy := Std(x), Std(y)
	if sx == 0 || sy == 0 {
		return math.NaN()
	}
	return Covariance(x, y) / (sx * sy)
}

// Ranks returns the 1-based ranks of x, assigning midranks to ties.
func Ranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// MeanCorrelation estimates the average correlation ρ between distinct
// performance measures of the biased estimator (Equation 7, Figure H.5).
// rows[r][i] is the i-th of k measures in realization r; measures i and j
// are correlated across realizations because each realization shares one
// fixed hyperparameter-optimization outcome. The estimate averages the
// Pearson correlation over all distinct pairs of measure columns.
func MeanCorrelation(rows [][]float64) float64 {
	if len(rows) < 2 || len(rows[0]) < 2 {
		return math.NaN()
	}
	k := len(rows[0])
	col := func(i int) []float64 {
		c := make([]float64, len(rows))
		for r := range rows {
			c[r] = rows[r][i]
		}
		return c
	}
	cols := make([][]float64, k)
	for i := 0; i < k; i++ {
		cols[i] = col(i)
	}
	total, count := 0.0, 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			c := PearsonCorr(cols[i], cols[j])
			if !math.IsNaN(c) {
				total += c
				count++
			}
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return total / float64(count)
}
