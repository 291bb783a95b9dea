package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"varbench/internal/xrand"
)

// The incremental bootstrap engine: a resumable P(A>B) accumulator.
//
// The classic percentile bootstrap (bootstrap_sharded.go) draws, for each of
// K resamples, n indices uniform in [0, n) — the index range itself depends
// on the sample size, so a resample computed at n_old cannot be extended
// when new scores arrive: the early-stop loop had to rebuild all K resamples
// at every batch boundary, O(batches × K × n) total work. This file
// implements the *weighted* (Bayesian) percentile bootstrap instead (Rubin
// 1981): resample i assigns every pair j an independent Exp(1) weight w_ij
// and evaluates the weighted fraction of pairs A wins. A new pair only
// *adds* terms to each resample's running sums, so the whole analysis is
// resumable: per-batch cost is O(K × n_new) and the state is two K-length
// columns that serialize to a snapshot.
//
// Determinism contract (the incremental analogue of the kernel contract in
// kernel.go):
//
//   - the weight of (pair j, resample i) is drawn from a stream derived
//     from (seed, j, shard-of-i) alone — never from when pair j arrived,
//     how extensions were batched, or the worker count — consuming exactly
//     one Float64 per (pair, resample) in resample order within the shard;
//   - each resample's sums accumulate over pairs in pair order;
//
// so Extend(x₁) followed by Extend(x₂) is bit-identical to Extend(x₁‖x₂),
// at any worker count, across any snapshot/restore boundary. This is a
// different resampling scheme from the classic engine — confidence
// intervals are statistically equivalent but not numerically identical to
// PairedPercentileBootstrapKernel's — which is exactly why it can be
// incremental: the classic multinomial scheme has no
// arrival-order-independent form.
//
// Shard boundaries reuse BootstrapShards(k), a pure function of k, so the
// parallel extension is worker-count invariant for the same reason the
// classic sharded engine is.

// An AccumKind identifies the statistic of an incremental accumulator.
type AccumKind uint8

// AccPAB is the weighted fraction of pairs A wins, ties counted half — the
// incremental form of the recommended protocol's P(A>B) statistic, and the
// one accumulator kind. Its value is the kind byte of the snapshot layout.
const AccPAB AccumKind = 4

// ID returns the versioned kernel identity used to fingerprint snapshots:
// bumping the version deliberately invalidates persisted state after a
// semantic change to the accumulator algebra.
func (k AccumKind) ID() string {
	if k == AccPAB {
		return "wb-pab/v1"
	}
	return fmt.Sprintf("wb-unknown(%d)", uint8(k))
}

// An Accum is a resumable bootstrap analysis of P(A>B): K weighted
// resamples maintained as running sums that new pairs extend in place.
// The zero value is unusable; construct with NewAccum or RestoreAccum.
// An Accum is not safe for concurrent mutation; ExtendPairs parallelizes
// internally.
type Accum struct {
	k    int
	seed uint64
	n    int // pairs consumed
	// Per resample: the total weight, and the weighted sum of twice the
	// win indicator (2 for a win, 1 for a tie, 0 for a loss).
	weight, wins []float64
}

// NewAccum returns an empty accumulator for kind (AccPAB) with k
// resamples, drawing all weights from streams derived from seed.
func NewAccum(kind AccumKind, k int, seed uint64) (*Accum, error) {
	if kind != AccPAB {
		return nil, fmt.Errorf("stats: unknown accumulator kind %d", kind)
	}
	if k < 1 {
		return nil, fmt.Errorf("stats: accumulator needs ≥ 1 resample, got %d", k)
	}
	return &Accum{k: k, seed: seed, weight: make([]float64, k), wins: make([]float64, k)}, nil
}

// K returns the number of resamples.
func (ac *Accum) K() int { return ac.k }

// Seed returns the root seed of the weight streams.
func (ac *Accum) Seed() uint64 { return ac.seed }

// N returns how many pairs the accumulator has consumed.
func (ac *Accum) N() int { return ac.n }

// incLabelPrefix roots the per-(pair, shard) weight-stream labels. The
// label bytes must stay exactly "incremental/x/<pair>/shard/<index>": they
// pin the weight streams independently of arrival order.
const incLabelPrefix = "incremental/x/"

// incLabel appends the weight-stream label for (pair, shard) to b.
func incLabel(b []byte, pair, shard int) []byte {
	b = append(b, incLabelPrefix...)
	b = strconv.AppendInt(b, int64(pair), 10)
	b = append(b, "/shard/"...)
	return strconv.AppendInt(b, int64(shard), 10)
}

// expWeight draws one Exp(1) resampling weight, consuming exactly one
// Float64. u ∈ [0,1) keeps the argument of Log1p in (−1, 0], so the weight
// is finite and non-negative (0 exactly when u is, probability 2⁻⁵³).
func expWeight(r *xrand.Source) float64 { return -math.Log1p(-r.Float64()) }

// ExtendPairs appends new paired measurements. The result is bit-identical
// whether the pairs arrive in one call or many, at any worker count. The
// returned error is always nil.
func (ac *Accum) ExtendPairs(pairs []Pair, workers int) error {
	nsh := BootstrapShards(ac.k)
	if min(workers, nsh) <= 1 {
		for s := 0; s < nsh; s++ {
			ac.extendShard(pairs, s, nsh)
		}
	} else {
		parallelShards(nsh, workers, func(s int) { ac.extendShard(pairs, s, nsh) })
	}
	ac.n += len(pairs)
	return nil
}

// extendShard adds pairs to the resamples of shard s (of nsh): for each
// pair it seeds the label-derived stream and draws one weight per resample
// in resample order.
func (ac *Accum) extendShard(pairs []Pair, s, nsh int) {
	lo, hi := s*ac.k/nsh, (s+1)*ac.k/nsh
	weight, wins := ac.weight[lo:hi], ac.wins[lo:hi]
	var root, r xrand.Source
	root.Seed(ac.seed)
	var lbl [len(incLabelPrefix) + 48]byte
	for j, pr := range pairs {
		var x2 float64 // twice the win indicator
		switch {
		case pr.A > pr.B:
			x2 = 2
		case pr.A == pr.B:
			x2 = 1
		}
		r.Seed(root.SplitSeedBytes(incLabel(lbl[:0], ac.n+j, s)))
		for i := range weight {
			w := expWeight(&r)
			weight[i] += w
			wins[i] += w * x2
		}
	}
}

// CI reads the two-sided percentile interval off the K weighted resample
// statistics. An empty accumulator, or a level outside (0, 1), yields the
// documented NaN CI. The total weight of a resample is a sum of Exp(1)
// draws and is zero only when every underlying uniform was exactly 0
// (probability 2⁻⁵³ per draw); such a resample evaluates to NaN and sorts
// first, exactly as NaN resample statistics do in the classic engine.
func (ac *Accum) CI(level float64) CI {
	if ac.n == 0 || math.IsNaN(level) || level <= 0 || level >= 1 {
		return nanCI(level)
	}
	vp := getFloats(ac.k)
	vals := *vp
	for i := range vals {
		vals[i] = ac.wins[i] / 2 / ac.weight[i]
	}
	ci := percentileCI(vals, level)
	putFloats(vp)
	return ci
}

// ---------------------------------------------------------------------------
// Snapshots. An accumulator serializes to a self-describing binary blob:
//
//	offset size  field
//	0      6     magic "VBACC1"
//	6      1     kind   (AccPAB)
//	7      8     k      (uint64 LE)
//	15     8     seed   (uint64 LE)
//	23     8     n      (uint64 LE)
//	31     8     0      (uint64 LE; reserved, restore rejects any other value)
//	39     8·k·2 the weight column, then the wins column, float64 bits LE
//
// Float64 bit patterns round-trip exactly (including NaN/Inf sums produced
// by non-finite scores), so restore → extend is bit-identical to never
// having snapshotted. The magic's trailing digit is the format version.

// accumMagic identifies (and versions) the snapshot encoding.
const accumMagic = "VBACC1"

// accumHeaderSize is the byte length of the fixed snapshot header.
const accumHeaderSize = len(accumMagic) + 1 + 4*8

// MarshalBinary serializes the accumulator state; see the format comment
// above. The blob embeds k and seed, so RestoreAccum needs no side channel
// — callers that persist snapshots should still fingerprint them with
// AccPAB.ID(), K() and Seed() to reject stale state early.
func (ac *Accum) MarshalBinary() ([]byte, error) {
	buf := make([]byte, accumHeaderSize+8*2*ac.k)
	copy(buf, accumMagic)
	buf[len(accumMagic)] = byte(AccPAB)
	off := len(accumMagic) + 1
	for _, v := range []uint64{uint64(ac.k), ac.seed, uint64(ac.n), 0} {
		binary.LittleEndian.PutUint64(buf[off:], v)
		off += 8
	}
	for _, col := range [2][]float64{ac.weight, ac.wins} {
		for _, v := range col {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	return buf, nil
}

// RestoreAccum rebuilds an accumulator from a MarshalBinary blob. A
// truncated, oversized or version-mismatched blob is rejected — never
// partially applied.
func RestoreAccum(data []byte) (*Accum, error) {
	if len(data) < accumHeaderSize || string(data[:len(accumMagic)]) != accumMagic {
		return nil, fmt.Errorf("stats: not an accumulator snapshot (bad magic or truncated header)")
	}
	if kind := AccumKind(data[len(accumMagic)]); kind != AccPAB {
		return nil, fmt.Errorf("stats: snapshot has unknown accumulator kind %d", kind)
	}
	off := len(accumMagic) + 1
	word := func() uint64 {
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v
	}
	k64, seed, n64, reserved := word(), word(), word(), word()
	const maxK = 1 << 31
	if k64 < 1 || k64 > maxK {
		return nil, fmt.Errorf("stats: snapshot resample count %d out of range", k64)
	}
	k := int(k64)
	if want := accumHeaderSize + 8*2*k; len(data) != want {
		return nil, fmt.Errorf("stats: snapshot length %d, want %d for %s k=%d", len(data), want, AccPAB.ID(), k)
	}
	if n64 > maxK*maxK {
		return nil, fmt.Errorf("stats: snapshot element count out of range")
	}
	if reserved != 0 {
		return nil, fmt.Errorf("stats: snapshot reserved word is %d, want 0", reserved)
	}
	ac := &Accum{k: k, seed: seed, n: int(n64), weight: make([]float64, k), wins: make([]float64, k)}
	for _, col := range [2][]float64{ac.weight, ac.wins} {
		for i := range col {
			col[i] = math.Float64frombits(word())
		}
	}
	return ac, nil
}

// restoreInto is RestoreAccum reusing ac's column storage when shapes match
// (the benchmark reset path: no per-iteration column allocation).
func (ac *Accum) restoreInto(data []byte) error {
	re, err := RestoreAccum(data)
	if err != nil {
		return err
	}
	if ac.k == re.k {
		copy(ac.weight, re.weight)
		copy(ac.wins, re.wins)
		ac.seed, ac.n = re.seed, re.n
		return nil
	}
	*ac = *re
	return nil
}
