package stats

import (
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

// meanDiffKernel is a fused TwoSampleKernel: the difference of means,
// summed straight from the drawn indices with no resample buffers. It
// obeys the determinism contract, so the engine must land it on the same
// CIs as its closure form, TwoSampleStatFunc(meanDiff).
type meanDiffKernel struct{}

func (meanDiffKernel) Stat(a, b []float64) float64 { return meanDiff(a, b) }

func (meanDiffKernel) ResampleInto(out []float64, a, b []float64, r *xrand.Source) {
	for i := range out {
		sa, sb := 0.0, 0.0
		for range a {
			sa += a[r.Intn(len(a))]
		}
		for range b {
			sb += b[r.Intn(len(b))]
		}
		out[i] = sa/float64(len(a)) - sb/float64(len(b))
	}
}

// TestFusedKernelsMatchClosures is the kernel/closure equivalence property
// test: a fused two-sample kernel must produce bit-identical CIs to its
// buffered closure counterpart, for random inputs, across the worker grid;
// and the buffered path must draw each resample exactly as the
// determinism contract says (all of a's indices, then all of b's). This is
// the determinism contract of kernel.go made executable.
func TestFusedKernelsMatchClosures(t *testing.T) {
	r := xrand.New(1234)
	for trial := 0; trial < 30; trial++ {
		k := 50 + r.Intn(300)
		level := 0.8 + 0.15*r.Float64()
		seed := r.Uint64()
		x := randomSample(r, 2+r.Intn(40))
		y := randomSample(r, 2+r.Intn(40))

		closure := TwoSampleStatFunc(meanDiff)
		for _, w := range kernelWorkerGrid() {
			fused := TwoSampleBootstrapKernel(x, y, meanDiffKernel{}, k, level, seed, w)
			closed := TwoSampleBootstrapKernel(x, y, closure, k, level, seed, w)
			if !ciEqual(fused, closed) {
				t.Fatalf("trial %d mean-diff workers=%d: fused %+v != closure %+v", trial, w, fused, closed)
			}
		}

		// TwoSampleStatFunc against resamples materialized by sequential
		// Intn draws from the same stream.
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

// TestKernelStatsMatchReferences pins the statistics to their reference
// implementations on the full (un-resampled) sample: PairedPAB to the win
// count with ties counted half, and the two-sample adapter's Stat to
// Mann-Whitney's P(A>B).
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
	if got, want := PairedPAB(a, b), wins/float64(len(pairs)); got != want {
		t.Errorf("PairedPAB = %v, want %v", got, want)
	}
	if got, want := mwPAB.Stat(a, b), MannWhitney(a, b, TwoTailed).PAB; got != want {
		t.Errorf("TwoSampleStatFunc.Stat = %v, want %v", got, want)
	}
}

// TestBootstrapDegenerateInputs covers the satellite guard: k ≤ 0, empty
// samples and a confidence level outside (0,1) answer with the documented
// NaN CI instead of panicking inside the quantile machinery.
func TestBootstrapDegenerateInputs(t *testing.T) {
	x := []float64{1, 2, 3}
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
			sx := x
			if c.empty {
				sx = nil
			}
			for _, w := range []int{1, 4} {
				isNaNCI(t, TwoSampleBootstrapKernel(sx, sx, mwPAB, c.k, c.level, 9, w), c.level)
			}
			if c.empty || c.k > 0 {
				n := len(sx)
				isNaNCI(t, PABCountsCI(n, 0, 0, c.level), c.level)
			}
		})
	}
}

// TestKernelEntryPointsMatchClosureEntryPoints locks the fused kernel to
// its closure form at resample counts on both sides of the shard-count
// boundary: the engine must hand both the same shard streams and take the
// same percentiles.
func TestKernelEntryPointsMatchClosureEntryPoints(t *testing.T) {
	r := xrand.New(99)
	x, y := randomSample(r, 31), randomSample(r, 27)
	for _, k := range []int{1, 2, 63, 64, 65, 1000} {
		fused := TwoSampleBootstrapKernel(x, y, meanDiffKernel{}, k, 0.9, 3, 4)
		closed := TwoSampleBootstrapKernel(x, y, TwoSampleStatFunc(meanDiff), k, 0.9, 3, 4)
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
	x, y := randomSample(r, 29), randomSample(r, 29)
	for _, k := range []int{7, 64, 1000} {
		ref := TwoSampleBootstrapKernel(x, y, meanDiffKernel{}, k, 0.95, 13, 1)
		for _, w := range kernelWorkerGrid() {
			ci := TwoSampleBootstrapKernel(x, y, meanDiffKernel{}, k, 0.95, 13, w)
			if !ciEqual(ci, ref) {
				t.Errorf("k=%d workers=%d: %+v != serial %+v", k, w, ci, ref)
			}
		}
	}
}

func TestBootstrapSmallSamples(t *testing.T) {
	// n=1: resampling a single element is legal and collapses the CI at
	// the statistic of that element — on every path.
	for _, c := range []struct {
		w, t, l int
		want    float64
	}{{1, 0, 0, 1}, {0, 1, 0, 0.5}, {0, 0, 1, 0}} {
		ci := PABCountsCI(c.w, c.t, c.l, 0.95)
		if ci.Lo != c.want || ci.Hi != c.want {
			t.Errorf("P(A>B) CI of counts %d/%d/%d = %+v, want collapsed at %v", c.w, c.t, c.l, ci, c.want)
		}
	}
	for _, w := range []int{1, 4} {
		ci := TwoSampleBootstrapKernel([]float64{2.5}, []float64{1}, mwPAB, 100, 0.95, 1, w)
		if ci.Lo != 1 || ci.Hi != 1 {
			t.Errorf("workers=%d: two-sample CI of singletons = %+v, want collapsed at 1", w, ci)
		}
	}
}
