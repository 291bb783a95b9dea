package xrand

import (
	"math"
	"strconv"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/1000 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sq += f * f
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sq, cube float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sq += x * x
		cube += x * x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	skew := cube / n
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
	if math.Abs(skew) > 0.05 {
		t.Errorf("normal third moment = %v, want ~0", skew)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(17)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates too far from %v", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniformBounds(t *testing.T) {
	r := New(19)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform(-3,5) out of range: %v", v)
		}
	}
}

func TestLogUniform(t *testing.T) {
	r := New(23)
	lo, hi := 1e-4, 1e-1
	belowMid := 0
	const n = 20000
	mid := math.Sqrt(lo * hi) // geometric midpoint
	for i := 0; i < n; i++ {
		v := r.LogUniform(lo, hi)
		if v < lo || v >= hi {
			t.Fatalf("LogUniform out of range: %v", v)
		}
		if v < mid {
			belowMid++
		}
	}
	// Log-uniform puts half the mass below the geometric midpoint.
	if math.Abs(float64(belowMid)/n-0.5) > 0.02 {
		t.Errorf("log-uniform median fraction = %v, want ~0.5", float64(belowMid)/n)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(99)
	a := root.Split("alpha")
	b := root.Split("beta")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d/1000 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(5).Split("x")
	b := New(5).Split("x")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same split label produced different streams")
		}
	}
}

// TestSplitAllocatesNothing: Split inlines, so a child that does not escape
// its caller stays on the stack, and the pipeline shape
// New(seed).Split(label).Normal(0, 1) allocates nothing.
func TestSplitAllocatesNothing(t *testing.T) {
	seed := uint64(5)
	var sum float64
	allocs := testing.AllocsPerRun(100, func() {
		sum += New(seed).Split("side-a").Normal(0, 1)
		seed++
	})
	if allocs != 0 {
		t.Fatalf("New(s).Split(l).Normal(0, 1) allocates %v times, want 0", allocs)
	}
	if math.IsNaN(sum) {
		t.Fatal("NaN draw")
	}
}

func TestShuffleIntsPreservesMultiset(t *testing.T) {
	r := New(41)
	p := []int{1, 1, 2, 3, 5, 8, 13}
	sum := 0
	for _, v := range p {
		sum += v
	}
	r.ShuffleInts(p)
	got := 0
	for _, v := range p {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: sum %d != %d", got, sum)
	}
}

// TestContinuedLabelHashMatchesSplit pins the LabelHash continuation to
// Split: a hash built from a prefix and then continued seeds exactly the
// stream of Split(prefix‖suffix). It covers the label shape the bootstrap
// engine derives ("bootstrap/shard/<i>"), a twice-continued hash, a
// negative suffix and the empty label.
func TestContinuedLabelHashMatchesSplit(t *testing.T) {
	type label struct {
		whole string
		hash  LabelHash
	}
	var labels []label
	add := func(whole string, h LabelHash) { labels = append(labels, label{whole, h}) }
	nums := []int{0, 9, 10, 63, 123456}
	for _, i := range nums {
		s := strconv.Itoa(i)
		add("bootstrap/shard/"+s, HashLabel("bootstrap/shard/").AppendInt(i))
		for _, j := range nums {
			add("x/"+s+strconv.Itoa(j), HashLabel("x/").AppendInt(i).AppendInt(j))
		}
	}
	add("", HashLabel(""))
	add("seed-1", HashLabel("seed").AppendInt(-1))
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		parent := New(seed)
		for _, l := range labels {
			want := New(seed).Split(l.whole)
			var got Source
			got.Seed(parent.SplitSeed(l.hash))
			for i := 0; i < 8; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d label %q draw %d: continued-hash stream %d != Split stream %d",
						seed, l.whole, i, g, w)
				}
			}
		}
	}
}

// TestSampleBulkMatchesIntn pins the bulk sampler to the sequential Intn
// contract: same accepted indices, same stream consumption — the invariant
// the buffered bootstrap path relies on. Small n near powers of two
// exercises the Lemire rejection path.
func TestSampleBulkMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 29, 64, 1000} {
		x := make([]float64, n)
		ref := New(uint64(n))
		for i := range x {
			x[i] = ref.NormFloat64()
		}
		for _, draws := range []int{0, 1, 5, 200} {
			seed := uint64(100*n + draws)
			ra, rb := New(seed), New(seed)
			// SampleInto vs sequential gather, on a non-float64 element type.
			type pair struct{ a, b float64 }
			src := make([]pair, n)
			for i := range src {
				src[i] = pair{x[i], -x[i]}
			}
			want := make([]pair, draws)
			for i := range want {
				want[i] = src[ra.Intn(n)]
			}
			got := make([]pair, draws)
			SampleInto(rb, got, src)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d draws=%d: SampleInto[%d] = %v, want %v", n, draws, i, got[i], want[i])
				}
			}
			if ra.Uint64() != rb.Uint64() {
				t.Fatalf("n=%d draws=%d: SampleInto consumed the stream differently", n, draws)
			}
		}
	}
}

// TestBulkFillsMatchScalarDraws pins NormFloat64s and Float64s to
// successive NormFloat64 and Float64 calls, bit for bit: odd and even
// lengths, fills that start with a cached Gaussian and fills that leave one
// cached, and the stream state the next draw sees, of either kind.
func TestBulkFillsMatchScalarDraws(t *testing.T) {
	bits := math.Float64bits
	for seed := uint64(1); seed <= 20; seed++ {
		ra, rb := New(seed), New(seed)
		// A run of fills, each followed by a scalar draw that depends on
		// the state the fill left: a Gaussian (which may be the cached
		// one), a uniform or an Intn, as augment.Pipeline{Jitter, Mask}
		// draws them from one stream.
		for i, n := range []int{0, 1, 2, 3, 5, 8, 17, 1, 1, 4, 33} {
			want := make([]float64, n)
			got := make([]float64, n)
			if i%2 == 0 {
				for j := range want {
					want[j] = ra.NormFloat64()
				}
				rb.NormFloat64s(got)
			} else {
				for j := range want {
					want[j] = ra.Float64()
				}
				rb.Float64s(got)
			}
			for j := range want {
				if bits(got[j]) != bits(want[j]) {
					t.Fatalf("seed %d, fill %d (len %d): element %d = %v, want %v", seed, i, n, j, got[j], want[j])
				}
			}
			switch i % 3 {
			case 0:
				if a, b := ra.NormFloat64(), rb.NormFloat64(); bits(a) != bits(b) {
					t.Fatalf("seed %d, after fill %d: NormFloat64 %v, want %v", seed, i, b, a)
				}
			case 1:
				if a, b := ra.Float64(), rb.Float64(); bits(a) != bits(b) {
					t.Fatalf("seed %d, after fill %d: Float64 %v, want %v", seed, i, b, a)
				}
			default:
				if a, b := ra.Intn(5), rb.Intn(5); a != b {
					t.Fatalf("seed %d, after fill %d: Intn %d, want %d", seed, i, b, a)
				}
			}
		}
		// The cached value is state only while hasGauss holds.
		if ra.Uint64() != rb.Uint64() || ra.hasGauss != rb.hasGauss || ra.hasGauss && bits(ra.gauss) != bits(rb.gauss) {
			t.Fatalf("seed %d: the fills left the stream in another state", seed)
		}
	}
}

func TestSampleBulkEmptyPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on empty sample did not panic", name)
			}
		}()
		f()
	}
	r := New(1)
	mustPanic("SampleInto", func() { SampleInto(r, make([]float64, 2), nil) })
	// Zero draws from an empty sample is a no-op, like zero Intn calls.
	SampleInto(r, []float64{}, nil)
	before := New(1).Uint64()
	if r.Uint64() != before {
		t.Error("empty-sample panics consumed randomness")
	}
}
