package stats

import (
	"bytes"
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
		splitPlans := [][]int{
			{n},                      // one shot (the reference itself)
			{1, n},                   // tiny first batch
			{n / 2, n},               // even split
			{n - 1, n},               // extension by a single pair
			make([]int, 0, n),        // pair at a time
			{n / 3, 2 * n / 3, n},    // three batches
			{n / 4, n / 2, n - 1, n}, // uneven batches
		}
		one := splitPlans[4]
		for i := 1; i <= n; i++ {
			one = append(one, i)
		}
		splitPlans[4] = one

		ref, err := NewAccum(AccPAB, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		extendAll(t, ref, pairs, []int{n}, 1)
		refBits := accumBits(t, ref)
		refCI := ref.CI(0.95)
		for _, splits := range splitPlans {
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
