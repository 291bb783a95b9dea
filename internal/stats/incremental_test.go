package stats

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"varbench/internal/xrand"
)

// extendAll feeds pairs to ac in the chunking the split list describes;
// splits are cumulative pair counts and must end at len(pairs).
func extendAll(t *testing.T, ac *Accum, pairs []Pair, splits []int, workers int) {
	t.Helper()
	lo := 0
	for _, hi := range splits {
		if err := ac.ExtendPairs(pairs[lo:hi], workers); err != nil {
			t.Fatalf("extend [%d:%d): %v", lo, hi, err)
		}
		lo = hi
	}
}

// accumBits is the bit-level identity witness: the snapshot serializes every
// accumulator column's float bits, so byte-equal snapshots mean bit-equal
// state.
func accumBits(t *testing.T, ac *Accum) []byte {
	t.Helper()
	b, err := ac.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	return b
}

// splitPlans lists the batchings the extend tests feed n pairs in, as
// cumulative pair counts (see extendAll).
func splitPlans(n int) [][]int {
	one := make([]int, 0, n) // pair at a time
	for i := 1; i <= n; i++ {
		one = append(one, i)
	}
	return [][]int{
		{n},                      // one shot
		{1, n},                   // tiny first batch
		{n / 2, n},               // even split
		{n - 1, n},               // extension by a single pair
		one,                      // pair at a time
		{n / 3, 2 * n / 3, n},    // three batches
		{n / 4, n / 2, n - 1, n}, // uneven batches
	}
}

// TestAccumExtendBitIdentical is the central property test: extending by
// n_new pairs is bit-identical to the from-scratch run on n_old+n_new —
// across the worker grid and across several split points, including
// pair-at-a-time feeding.
func TestAccumExtendBitIdentical(t *testing.T) {
	r := xrand.New(99)
	for trial := 0; trial < 8; trial++ {
		n := 4 + r.Intn(30)
		k := 40 + r.Intn(200)
		seed := r.Uint64()
		pairs := randomPairs(r, n)
		ref, err := NewAccum(AccPAB, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		extendAll(t, ref, pairs, []int{n}, 1)
		refBits := accumBits(t, ref)
		refCI := ref.CI(0.95)
		for _, splits := range splitPlans(n) {
			for _, w := range kernelWorkerGrid() {
				got, err := NewAccum(AccPAB, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				extendAll(t, got, pairs, splits, w)
				if !bytes.Equal(accumBits(t, got), refBits) {
					t.Fatalf("k=%d n=%d splits=%v workers=%d: state differs from from-scratch",
						k, n, splits, w)
				}
				if !ciEqual(got.CI(0.95), refCI) {
					t.Fatalf("CI differs: %+v vs %+v", got.CI(0.95), refCI)
				}
			}
		}
	}
}

// TestAccumSnapshotRoundTrip pins the resumability contract end to end:
// serialize mid-stream, restore in a fresh process-equivalent, extend with
// the remaining pairs — bit-identical to never having snapshotted.
func TestAccumSnapshotRoundTrip(t *testing.T) {
	r := xrand.New(41)
	for trial := 0; trial < 6; trial++ {
		n := 6 + r.Intn(24)
		k := 40 + r.Intn(160)
		seed := r.Uint64()
		pairs := randomPairs(r, n)
		cut := 1 + r.Intn(n-1)
		ref, err := NewAccum(AccPAB, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		half, err := NewAccum(AccPAB, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		extendAll(t, ref, pairs, []int{n}, 1)
		extendAll(t, half, pairs, []int{cut}, 1)

		restored, err := RestoreAccum(accumBits(t, half))
		if err != nil {
			t.Fatalf("RestoreAccum: %v", err)
		}
		if restored.K() != k || restored.Seed() != seed || restored.N() != cut {
			t.Fatalf("restored identity mismatch: k=%d seed=%d n=%d",
				restored.K(), restored.Seed(), restored.N())
		}
		if err := restored.ExtendPairs(pairs[cut:], 1); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(accumBits(t, restored), accumBits(t, ref)) {
			t.Fatal("restore→extend differs from uninterrupted run")
		}
	}
}

// TestAccumCISanity checks the weighted-bootstrap CI is statistically
// sensible: the PAB interval of clearly separated pairs sits above 0.5.
func TestAccumCISanity(t *testing.T) {
	r := xrand.New(5)
	n := 40
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{A: 1 + 0.1*r.NormFloat64(), B: 0.1 * r.NormFloat64()}
	}
	pab, _ := NewAccum(AccPAB, 1000, 11)
	if err := pab.ExtendPairs(pairs, 1); err != nil {
		t.Fatal(err)
	}
	ci := pab.CI(0.95)
	if !(ci.Lo > 0.5) || !(ci.Hi <= 1) || ci.Lo > ci.Hi {
		t.Fatalf("PAB CI of clearly separated pairs: %+v", ci)
	}
}

// TestAccumCIDegenerate: empty accumulators and bad levels yield the
// documented NaN CI instead of panicking or inventing numbers.
func TestAccumCIDegenerate(t *testing.T) {
	ac, _ := NewAccum(AccPAB, 100, 1)
	if ci := ac.CI(0.95); !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) {
		t.Fatalf("empty accumulator CI = %+v, want NaN", ci)
	}
	if err := ac.ExtendPairs([]Pair{{A: 1, B: 2}, {A: 3, B: 2}, {A: 2, B: 2}}, 1); err != nil {
		t.Fatal(err)
	}
	for _, level := range []float64{0, 1, -0.1, 1.1, math.NaN()} {
		if ci := ac.CI(level); !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) {
			t.Fatalf("CI(%v) = %+v, want NaN", level, ci)
		}
	}
}

// TestAccumShapeErrors: an accumulator of an unknown kind or without
// resamples is an error, not a silent misinterpretation.
func TestAccumShapeErrors(t *testing.T) {
	for _, kind := range []AccumKind{0, 1, 2, 3, 5, 99} {
		if _, err := NewAccum(kind, 10, 1); err == nil {
			t.Fatalf("NewAccum accepted kind %d", kind)
		}
	}
	if _, err := NewAccum(AccPAB, 0, 1); err == nil {
		t.Fatal("NewAccum accepted k=0")
	}
}

// TestRestoreAccumRejectsGarbage: truncated, oversized or corrupted
// snapshots are rejected whole — never partially applied.
func TestRestoreAccumRejectsGarbage(t *testing.T) {
	ac, _ := NewAccum(AccPAB, 64, 9)
	if err := ac.ExtendPairs(randomPairs(xrand.New(3), 10), 1); err != nil {
		t.Fatal(err)
	}
	good, err := ac.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		[]byte("short"),
		good[:len(good)-1],           // truncated column data
		append(bytes.Clone(good), 0), // trailing garbage
	}
	wrongMagic := bytes.Clone(good)
	wrongMagic[0] = 'X'
	wrongKind := bytes.Clone(good)
	wrongKind[6] = 99
	meanKind := bytes.Clone(good)
	meanKind[6] = 1
	reserved := bytes.Clone(good)
	reserved[31] = 1 // the reserved word after n
	bad = append(bad, wrongMagic, wrongKind, meanKind, reserved)
	for i, b := range bad {
		if _, err := RestoreAccum(b); err == nil {
			t.Fatalf("RestoreAccum accepted corrupt blob %d", i)
		}
	}
	if re, err := RestoreAccum(good); err != nil || re.N() != 10 {
		t.Fatalf("RestoreAccum rejected its own output: %v", err)
	}
}

// TestAccumExtendAllocsFlat pins the steady-state allocation profile of the
// serial extend path: a handful of closure headers at most, independent of
// how many elements the accumulator already holds — the in-place columns
// never reallocate.
func TestAccumExtendAllocsFlat(t *testing.T) {
	pairs := randomPairs(xrand.New(8), 400)
	ac, _ := NewAccum(AccPAB, 256, 2)
	if err := ac.ExtendPairs(pairs[:8], 1); err != nil { // warm the pools
		t.Fatal(err)
	}
	lo := 8
	measure := func() float64 {
		return testing.AllocsPerRun(20, func() {
			if err := ac.ExtendPairs(pairs[lo:lo+8], 1); err != nil {
				t.Fatal(err)
			}
			lo += 8
		})
	}
	early := measure()
	late := measure()
	if early > 4 || late > 4 {
		t.Fatalf("ExtendPairs allocates per batch: early=%v late=%v allocs/op, want ≤ 4", early, late)
	}
	if late > early {
		t.Fatalf("ExtendPairs allocations grow with n: early=%v late=%v", early, late)
	}
}

// referenceExtend is the accumulator's original per-cell loop, kept as the
// reference the engine must match bit for bit: shard by shard and pair by
// pair, each stream is Split from its whole label and each weight is
// -math.Log1p(-Float64()).
func referenceExtend(ac *Accum, pairs []Pair) {
	nsh := BootstrapShards(ac.k)
	root := xrand.New(ac.seed)
	for s := 0; s < nsh; s++ {
		lo, hi := s*ac.k/nsh, (s+1)*ac.k/nsh
		for j, pr := range pairs {
			var x2 float64
			switch {
			case pr.A > pr.B:
				x2 = 2
			case pr.A == pr.B:
				x2 = 1
			}
			r := root.Split(fmt.Sprintf("incremental/x/%d/shard/%d", ac.n+j, s))
			for i := lo; i < hi; i++ {
				w := -math.Log1p(-r.Float64())
				ac.weight[i] += w
				ac.wins[i] += w * x2
			}
		}
	}
	ac.n += len(pairs)
}

// forEachWeightPath runs f once per path of the weight kernel: the scalar
// log1pWeight loop, then the AVX2 kernel, which it logs and skips on a CPU
// without AVX2. It restores the CPU's choice when the test ends.
func forEachWeightPath(t *testing.T, f func(t *testing.T)) {
	cpu := useAVX2
	t.Cleanup(func() { useAVX2 = cpu })
	for _, path := range []struct {
		name string
		avx2 bool
	}{{"scalar", false}, {"avx2", true}} {
		t.Run(path.name, func(t *testing.T) {
			if path.avx2 && !cpu {
				t.Skip("this CPU has no AVX2 kernel (or is not amd64)")
			}
			useAVX2 = path.avx2
			f(t)
		})
	}
}

// TestAccumExtendMatchesReferenceLoop pins ExtendPairs to referenceExtend
// on both weight-kernel paths: byte-equal snapshots for every batching,
// across K values on both sides of the 64-shard cap and uneven shard sizes
// (K = 20000 has 64 shards of 312–313 resamples, so shards cross the
// 256-cell draw chunks), at worker counts that split the shards unevenly
// and beyond the shard count, on pairs with ties and non-finite scores.
// Stored snapshots written by the reference loop must keep resuming to the
// same bits.
func TestAccumExtendMatchesReferenceLoop(t *testing.T) {
	inf := math.Inf(1)
	special := []Pair{
		{A: 1, B: 1}, {A: inf, B: 0}, {A: 0, B: -inf}, {A: inf, B: inf},
		{A: -inf, B: 2}, {A: math.NaN(), B: 0}, {A: 0, B: math.NaN()},
	}
	forEachWeightPath(t, func(t *testing.T) {
		for _, seed := range []uint64{0, 77, 1 << 63} {
			pairs := append(randomPairs(xrand.New(seed^5), 10), special...)
			for _, k := range []int{1, 7, 63, 64, 65, 300, 1000, 1024, 4099, 20000} {
				ref, err := NewAccum(AccPAB, k, seed)
				if err != nil {
					t.Fatal(err)
				}
				referenceExtend(ref, pairs)
				refBits := accumBits(t, ref)
				for _, splits := range splitPlans(len(pairs)) {
					for _, w := range []int{1, 2, 3, 64} {
						got, err := NewAccum(AccPAB, k, seed)
						if err != nil {
							t.Fatal(err)
						}
						extendAll(t, got, pairs, splits, w)
						if !bytes.Equal(accumBits(t, got), refBits) {
							t.Fatalf("seed=%d k=%d splits=%v workers=%d: state differs from the reference loop",
								seed, k, splits, w)
						}
					}
				}
			}
		}
	})
}

// log1pWeightSweep calls f with every m the weight-kernel pins check: every
// m below 2²⁰ and the top 2²⁰ below 2⁵³; ±2¹⁶ around 2²⁴, where the
// math.Log1p fallback ends, and around ⌈(1-√2/2)·2⁵³⌉, log1p's k = 0 edge;
// ±4096 around 2⁵³-2ᵉ for e = 1…52, where 1-u is a power of two (the
// zero-mantissa fallback); ±4096 around the √2 mantissa crossover of 1-u
// in each binade; and 10⁷ seeded draws.
func log1pWeightSweep(f func(m uint64)) {
	const top = 1 << 53
	span := func(lo, hi uint64) {
		for m := lo; m < min(hi, top); m++ {
			f(m)
		}
	}
	around := func(c, r uint64) { span(c-min(c, r), c+r) }
	span(0, 1<<20)
	span(top-1<<20, top)
	around(1<<24, 1<<16)
	around(uint64(math.Ceil((1-math.Sqrt2/2)*top)), 1<<16)
	for e := 1; e <= 52; e++ {
		around(top-1<<e, 4096)
	}
	for b := 1; b <= 53; b++ { // 1-u = √2·2⁻ᵇ
		around(top-uint64(math.Round(math.Ldexp(math.Sqrt2, 53-b))), 4096)
	}
	r := xrand.New(1)
	for i := 0; i < 10_000_000; i++ {
		f(r.Uint64() >> 11)
	}
}

// wantWeight is the weight every kernel must return for m, as bits:
// -math.Log1p(-u) of u = m·2⁻⁵³ on the running Go release.
func wantWeight(m uint64) uint64 {
	return math.Float64bits(-math.Log1p(-float64(m) / (1 << 53)))
}

// TestLog1pWeightMatchesLog1p pins the weight kernel to the running Go
// release's math.Log1p bit for bit, on every m of log1pWeightSweep: first
// log1pWeight itself, then expWeights on each kernel path, fed the same
// sweep in chunks of 61 cells — so chunks end in a scalar tail and, at the
// edges of the fallback bands, mix rare and common lanes — and fed each
// rare m alone in a chunk of common lanes, at every lane position.
func TestLog1pWeightMatchesLog1p(t *testing.T) {
	log1pWeightSweep(func(m uint64) {
		if got := log1pWeight(m); math.Float64bits(got) != wantWeight(m) {
			t.Fatalf("m=%d: log1pWeight=%v (%#x), -math.Log1p(-u)=%#x",
				m, got, math.Float64bits(got), wantWeight(m))
		}
	})
	forEachWeightPath(t, func(t *testing.T) {
		const chunk = 61
		ms := make([]uint64, 0, chunk)
		ws := make([]float64, chunk)
		flush := func() {
			expWeights(ws[:len(ms)], ms)
			for i, m := range ms {
				if got := ws[i]; math.Float64bits(got) != wantWeight(m) {
					t.Fatalf("m=%d at %d of a %d-cell chunk: expWeights=%v (%#x), -math.Log1p(-u)=%#x",
						m, i, len(ms), got, math.Float64bits(got), wantWeight(m))
				}
			}
			ms = ms[:0]
		}
		log1pWeightSweep(func(m uint64) {
			if ms = append(ms, m); len(ms) == chunk {
				flush()
			}
		})
		flush()
		// The rare branches: m < 2²⁴, 1-u a power of two, and 1-u just
		// below 1/2 (a normalised mantissa of 2⁵²-2, shifted to zero).
		rare := []uint64{0, 1, 3, 1<<24 - 1, 1<<52 + 1}
		for e := 0; e <= 52; e++ {
			rare = append(rare, 1<<53-1<<e)
		}
		common := xrand.New(2)
		for _, m := range rare {
			for pos := range 8 {
				for len(ms) < 8 {
					ms = append(ms, 1<<24+common.Uint64()>>12)
				}
				ms[pos] = m
				flush()
			}
		}
	})
}
