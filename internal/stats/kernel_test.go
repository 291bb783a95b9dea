package stats

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"varbench/internal/xrand"
)

// kernelWorkerGrid is the worker sweep the satellite spec pins: serial, a
// small fixed pool, and whatever the machine offers.
func kernelWorkerGrid() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

func randomSample(r *xrand.Source, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

func randomPairs(r *xrand.Source, n int) []Pair {
	p := make([]Pair, n)
	for i := range p {
		base := r.NormFloat64()
		a := base + 0.3*r.NormFloat64()
		b := base + 0.3*r.NormFloat64()
		// Exercise the tie (+½) arm of the PAB kernel too.
		if r.Bernoulli(0.2) {
			b = a
		}
		p[i] = Pair{A: a, B: b}
	}
	return p
}

// ciEqual distinguishes bit-level equality including NaN endpoints (== is
// false for NaN).
func ciEqual(a, b CI) bool {
	eq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return eq(a.Lo, b.Lo) && eq(a.Hi, b.Hi) && a.Level == b.Level
}

// mwPAB is the unpaired protocol's statistic: Mann-Whitney's P(A>B).
var mwPAB = TwoSampleStatFunc(func(a, b []float64) float64 { return MannWhitney(a, b, TwoTailed).PAB })

// TestFusedKernelsMatchClosures is the kernel/closure equivalence property
// test: the fused P(A>B) kernel must produce bit-identical CIs to its
// buffered closure counterpart, for random inputs, across the worker grid,
// in both the sharded and the serial caller-stream engines; and the
// buffered two-sample path must draw each resample exactly as the
// determinism contract says (all of a's indices, then all of b's). This is
// the determinism contract of kernel.go made executable.
func TestFusedKernelsMatchClosures(t *testing.T) {
	r := xrand.New(1234)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(40)
		k := 50 + r.Intn(300)
		level := 0.8 + 0.15*r.Float64()
		seed := r.Uint64()
		x := randomSample(r, n)
		pairs := randomPairs(r, n)
		y := randomSample(r, 2+r.Intn(40))

		closure := PairStatFunc(PABKernel{}.Stat)
		for _, w := range kernelWorkerGrid() {
			fused := PairedPercentileBootstrapKernel(pairs, PABKernel{}, k, level, seed, w)
			closed := PairedPercentileBootstrapKernel(pairs, closure, k, level, seed, w)
			if !ciEqual(fused, closed) {
				t.Fatalf("trial %d pab workers=%d: fused %+v != closure %+v", trial, w, fused, closed)
			}
		}
		rf, rc := xrand.New(seed), xrand.New(seed)
		fused := PairedPercentileBootstrapWith(pairs, PABKernel{}, k, level, rf)
		closed := PairedPercentileBootstrapWith(pairs, closure, k, level, rc)
		if !ciEqual(fused, closed) {
			t.Fatalf("trial %d pab serial: fused %+v != closure %+v", trial, fused, closed)
		}
		if rf.Uint64() != rc.Uint64() {
			t.Fatalf("trial %d pab: fused kernel consumed the stream differently", trial)
		}

		// Two-sample: TwoSampleStatFunc against resamples materialized by
		// sequential Intn draws from the same stream.
		got := make([]float64, 5)
		ra, rb := xrand.New(seed), xrand.New(seed)
		mwPAB.ResampleInto(got, x, y, ra)
		bufX, bufY := make([]float64, len(x)), make([]float64, len(y))
		for i := range got {
			for j := range bufX {
				bufX[j] = x[rb.Intn(len(x))]
			}
			for j := range bufY {
				bufY[j] = y[rb.Intn(len(y))]
			}
			if want := mwPAB(bufX, bufY); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d two-sample resample %d: %v, want %v", trial, i, got[i], want)
			}
		}
		if ra.Uint64() != rb.Uint64() {
			t.Fatalf("trial %d two-sample: buffered path consumed the stream differently", trial)
		}
		ref := TwoSampleBootstrapKernel(x, y, mwPAB, k, level, seed, 1)
		for _, w := range kernelWorkerGrid() {
			if ci := TwoSampleBootstrapKernel(x, y, mwPAB, k, level, seed, w); !ciEqual(ci, ref) {
				t.Fatalf("trial %d two-sample workers=%d: %+v != serial %+v", trial, w, ci, ref)
			}
		}
	}
}

// TestKernelStatsMatchReferences pins the Stat methods to the package-level
// reference implementations on the full (un-resampled) sample.
func TestKernelStatsMatchReferences(t *testing.T) {
	r := xrand.New(7)
	pairs := randomPairs(r, 23)
	wins := 0.0
	a := make([]float64, len(pairs))
	b := make([]float64, len(pairs))
	for i, pr := range pairs {
		switch {
		case pr.A > pr.B:
			wins++
		case pr.A == pr.B:
			wins += 0.5
		}
		a[i], b[i] = pr.A, pr.B
	}
	if got, want := (PABKernel{}).Stat(pairs), wins/float64(len(pairs)); got != want {
		t.Errorf("PABKernel.Stat = %v, want %v", got, want)
	}
	if got, want := (PABKernel{}).Stat(pairs), PairedPAB(a, b); got != want {
		t.Errorf("PABKernel.Stat = %v, PairedPAB = %v", got, want)
	}
	if got, want := mwPAB.Stat(a, b), MannWhitney(a, b, TwoTailed).PAB; got != want {
		t.Errorf("TwoSampleStatFunc.Stat = %v, want %v", got, want)
	}
}

// TestBootstrapDegenerateInputs covers the satellite guard: k ≤ 0, empty
// samples and a confidence level outside (0,1) answer with the documented
// NaN CI — and consume no randomness on the serial path — instead of
// panicking inside the quantile machinery.
func TestBootstrapDegenerateInputs(t *testing.T) {
	x := []float64{1, 2, 3}
	pairs := []Pair{{1, 2}, {3, 4}}
	isNaNCI := func(t *testing.T, ci CI, level float64) {
		t.Helper()
		if !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) {
			t.Errorf("degenerate input: CI %+v, want NaN endpoints", ci)
		}
		if ci.Level != level && !(math.IsNaN(level) && math.IsNaN(ci.Level)) {
			t.Errorf("degenerate input: level %v, want %v echoed", ci.Level, level)
		}
	}
	cases := []struct {
		name  string
		empty bool // use empty samples
		k     int
		level float64
	}{
		{"k-zero", false, 0, 0.95},
		{"k-negative", false, -3, 0.95},
		{"empty-sample", true, 100, 0.95},
		{"level-zero", false, 100, 0},
		{"level-one", false, 100, 1},
		{"level-negative", false, 100, -0.5},
		{"level-above-one", false, 100, 1.7},
		{"level-nan", false, 100, math.NaN()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sx, sp := x, pairs
			if c.empty {
				sx, sp = nil, nil
			}
			r := xrand.New(5)
			before := xrand.New(5).Uint64()
			isNaNCI(t, PairedPercentileBootstrapWith(sp, PABKernel{}, c.k, c.level, r), c.level)
			if got := r.Uint64(); got != before {
				t.Error("degenerate serial bootstrap consumed randomness")
			}
			for _, w := range []int{1, 4} {
				isNaNCI(t, PairedPercentileBootstrapKernel(sp, PABKernel{}, c.k, c.level, 9, w), c.level)
				isNaNCI(t, TwoSampleBootstrapKernel(sx, sx, mwPAB, c.k, c.level, 9, w), c.level)
			}
		})
	}
}

// TestKernelEntryPointsMatchClosureEntryPoints locks the fused kernel to
// its closure form at resample counts on both sides of the shard-count
// boundary: a closure that mirrors the fused statistic goes through
// PairStatFunc and must land on the same CI.
func TestKernelEntryPointsMatchClosureEntryPoints(t *testing.T) {
	r := xrand.New(99)
	pairs := randomPairs(r, 31)
	for _, k := range []int{1, 2, 63, 64, 65, 1000} {
		fused := PairedPercentileBootstrapKernel(pairs, PABKernel{}, k, 0.9, 3, 4)
		closed := PairedPercentileBootstrapKernel(pairs, PairStatFunc(PABKernel{}.Stat), k, 0.9, 3, 4)
		if !ciEqual(fused, closed) {
			t.Fatalf("k=%d: kernel %+v != closure %+v", k, fused, closed)
		}
	}
}

// TestShardedWorkerInvarianceFusedGrid re-runs the worker-grid invariance
// check on the fused kernel specifically (the closure grid lives in
// bootstrap_sharded_test.go), at several K to cross shard-count boundaries.
func TestShardedWorkerInvarianceFusedGrid(t *testing.T) {
	r := xrand.New(31)
	pairs := randomPairs(r, 29)
	for _, k := range []int{7, 64, 1000} {
		ref := PairedPercentileBootstrapKernel(pairs, PABKernel{}, k, 0.95, 13, 1)
		for _, w := range kernelWorkerGrid() {
			ci := PairedPercentileBootstrapKernel(pairs, PABKernel{}, k, 0.95, 13, w)
			if !ciEqual(ci, ref) {
				t.Errorf("k=%d workers=%d: %+v != serial %+v", k, w, ci, ref)
			}
		}
	}
}

func TestBootstrapSmallSamples(t *testing.T) {
	// n=1: resampling a single element is legal and collapses the CI at
	// the statistic of that element — on every path.
	for _, w := range []int{1, 4} {
		for _, c := range []struct {
			pair Pair
			want float64
		}{{Pair{A: 2, B: 1}, 1}, {Pair{A: 1, B: 1}, 0.5}, {Pair{A: 0, B: 1}, 0}} {
			one := []Pair{c.pair}
			ci := PairedPercentileBootstrapKernel(one, PABKernel{}, 100, 0.95, 1, w)
			if ci.Lo != c.want || ci.Hi != c.want {
				t.Errorf("workers=%d: P(A>B) CI of %+v = %+v, want collapsed at %v", w, c.pair, ci, c.want)
			}
			closed := PairedPercentileBootstrapKernel(one, PairStatFunc(PABKernel{}.Stat), 100, 0.95, 1, w)
			if !ciEqual(ci, closed) {
				t.Errorf("workers=%d: singleton fused %+v != closure %+v", w, ci, closed)
			}
		}
		ci := TwoSampleBootstrapKernel([]float64{2.5}, []float64{1}, mwPAB, 100, 0.95, 1, w)
		if ci.Lo != 1 || ci.Hi != 1 {
			t.Errorf("workers=%d: two-sample CI of singletons = %+v, want collapsed at 1", w, ci)
		}
	}
}

func ExamplePairedPercentileBootstrapKernel() {
	pairs := []Pair{{0.71, 0.69}, {0.74, 0.70}, {0.69, 0.70}, {0.73, 0.71}, {0.75, 0.72}, {0.70, 0.70}, {0.72, 0.68}}
	ci := PairedPercentileBootstrapKernel(pairs, PABKernel{}, 1000, 0.95, 42, 4)
	fmt.Printf("level=%.2f lo<hi: %v\n", ci.Level, ci.Lo < ci.Hi)
	// Output: level=0.95 lo<hi: true
}
