package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"varbench/internal/xrand"
)

// The incremental bootstrap engine: a resumable P(A>B) accumulator.
//
// The classic percentile bootstrap (bootstrap_sharded.go) draws, for each of
// K resamples, n indices uniform in [0, n) — the index range itself depends
// on the sample size, so a resample computed at n_old cannot be extended
// when new scores arrive: a loop that judges or saves the analysis at every
// batch boundary would rebuild all K resamples each time, O(batches × K × n)
// total work. This file
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
//   - the weight of (pair j, resample i) is -log1p(-u) of one uniform
//     u = m·2⁻⁵³, m = Uint64()>>11 (the draw Float64 makes), from a stream
//     derived from (seed, j, shard-of-i) alone — never from when pair j
//     arrived, how extensions were batched, or the worker count — and each
//     stream is drawn in resample order within its shard;
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
// The weight kernel (log1pWeight) computes -log1p(-u) with math.Log1p's own
// code path specialised to this domain, so its bits equal math.Log1p's; see
// its doc comment for why, and TestLog1pWeightMatchesLog1p for the pin. On
// amd64 CPUs with AVX2, expWeights runs the same IEEE operations in the
// same order on four lanes per instruction (expweights_amd64.s), with no
// fused multiply-add, so a weight's bits do not depend on which path drew
// it; the tests pin both paths on one machine.
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

// ExtendPairs appends new paired measurements. The result is bit-identical
// whether the pairs arrive in one call or many, at any worker count. The
// returned error is always nil.
func (ac *Accum) ExtendPairs(pairs []Pair, workers int) error {
	nsh := BootstrapShards(ac.k)
	if nw := min(workers, nsh); nw <= 1 {
		ac.extendShards(pairs, 0, nsh, nsh)
	} else {
		// Static shard ranges, one per worker: the streams depend only on
		// (seed, pair, shard) and the ranges write disjoint resamples, so
		// the split changes no bit.
		var wg sync.WaitGroup
		for w := range nw {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ac.extendShards(pairs, w*nsh/nw, (w+1)*nsh/nw, nsh)
			}()
		}
		wg.Wait()
	}
	ac.n += len(pairs)
	return nil
}

// extendChunk is how many cells extendShards draws and converts at a time,
// in two stack buffers of 2 KiB each.
const extendChunk = 256

// extendShards adds pairs to the resamples of shards [s0, s1) of nsh. It
// walks the pairs in order and, for each pair, the resamples of those
// shards in chunks: it draws a chunk's mantissas, turns them into weights
// with expWeights, then adds the weights to the columns. The label hash of
// "incremental/x/<pair>/shard/" is computed once per pair and continued
// with each shard's digits to seed that (pair, shard) stream where its
// resamples begin.
func (ac *Accum) extendShards(pairs []Pair, s0, s1, nsh int) {
	var (
		root, r xrand.Source
		ms      [extendChunk]uint64
		ws      [extendChunk]float64
	)
	root.Seed(ac.seed)
	prefix := xrand.HashLabel(incLabelPrefix)
	lo, hi := s0*ac.k/nsh, s1*ac.k/nsh
	for j, pr := range pairs {
		var x2 float64 // twice the win indicator
		switch {
		case pr.A > pr.B:
			x2 = 2
		case pr.A == pr.B:
			x2 = 1
		}
		pair := prefix.AppendInt(ac.n + j).Append("/shard/")
		s, next := s0, lo // the next shard, and its first resample
		for c := lo; c < hi; c += extendChunk {
			n := min(extendChunk, hi-c)
			for i := 0; i < n; {
				if c+i == next {
					r.Seed(root.SplitSeed(pair.AppendInt(s)))
					s++
					next = s * ac.k / nsh
				}
				d := min(n, next-c)
				r.Mantissas(ms[i:d])
				i = d
			}
			expWeights(ws[:n], ms[:n])
			weight, wins := ac.weight[c:c+n], ac.wins[c:c+n]
			for i, w := range ws[:n] {
				weight[i] += w
				wins[i] += w * x2
			}
		}
	}
}

// expWeights sets ws[i] = log1pWeight(ms[i]) for every i. Where the CPU
// has AVX2 (see expweights_amd64.go), a kernel that computes the same IEEE
// operations on four lanes fills all but a tail of up to three cells;
// log1pWeight fills the rest, and the whole of a chunk with a rare lane.
func expWeights(ws []float64, ms []uint64) {
	ws = ws[:len(ms)]
	for i := expWeightsVec(ws, ms); i < len(ms); i++ {
		ws[i] = log1pWeight(ms[i])
	}
}

// log1pWeight returns the Exp(1) weight -log1p(-u) of the uniform
// u = m·2⁻⁵³, for m < 2⁵³: bit for bit -math.Log1p(-float64(m)/(1<<53)).
// The weight is finite and non-negative, and 0 exactly when m is.
//
// It is math.Log1p's pure-Go code path (FreeBSD's s_log1p.c) with the
// constants, the normalisation and every expression shape copied verbatim
// (the order of operations is what keeps the bits equal), specialised to
// x = -u ∈ (-1, 0]:
//
//   - x is never NaN, ±Inf or ≤ -1, so those checks go;
//   - for u ≥ 1-√2/2 (log1p's k ≠ 0 path), 1+x = (2⁵³-m)·2⁻⁵³ is exact and
//     so is (1+x)-1 = x, which makes the correction term
//     c = (x - ((1+x)-1)) / (1+x) exactly +0: its subtraction and division
//     drop out, and adding it to k·ln2_lo ≠ 0 changes nothing. There
//     1+x < √2/2 as well, so normalisation leaves k ≤ -1 and the k = 0
//     return of that path is unreachable.
//
// Two kinds of argument call math.Log1p itself, because log1p takes rare
// branches for them: m < 2²⁴ (|x| < 2⁻²⁹, the small-argument series) and a
// normalised mantissa of zero. TestLog1pWeightMatchesLog1p pins the bits
// against the Go release's own math.Log1p, branch edges included.
func log1pWeight(m uint64) float64 {
	const (
		Sqrt2HalfM1 = -2.928932188134524755992e-01 // Sqrt(2)/2-1 = 0xbfd2bec333018866
		Ln2Hi       = 6.93147180369123816490e-01   // 3fe62e42fee00000
		Ln2Lo       = 1.90821492927058770002e-10   // 3dea39ef35793c76
		Lp1         = 6.666666666666735130e-01     // 3FE5555555555593
		Lp2         = 3.999999999940941908e-01     // 3FD999999997FA04
		Lp3         = 2.857142874366239149e-01     // 3FD2492494229359
		Lp4         = 2.222219843214978396e-01     // 3FCC71C51D8E78AF
		Lp5         = 1.818357216161805012e-01     // 3FC7466496CB03DE
		Lp6         = 1.531383769920937332e-01     // 3FC39A09D078C69F
		Lp7         = 1.479819860511658591e-01     // 3FC2F112DF3E5244
	)
	x := -(float64(m) / (1 << 53))
	if m < 1<<24 {
		return -math.Log1p(x)
	}
	if x > Sqrt2HalfM1 { // k = 0: f = x
		f := x
		hfsq := 0.5 * f * f
		s := f / (2.0 + f)
		z := s * s
		R := z * (Lp1 + z*(Lp2+z*(Lp3+z*(Lp4+z*(Lp5+z*(Lp6+z*Lp7))))))
		return -(f - (hfsq - s*(hfsq+R)))
	}
	u := 1.0 + x
	iu := math.Float64bits(u)
	k := int((iu >> 52) - 1023)
	iu &= 0x000fffffffffffff
	if iu < 0x0006a09e667f3bcd { // mantissa of Sqrt(2)
		u = math.Float64frombits(iu | 0x3ff0000000000000) // normalize u
	} else {
		k++
		u = math.Float64frombits(iu | 0x3fe0000000000000) // normalize u/2
		iu = (0x0010000000000000 - iu) >> 2
	}
	if iu == 0 {
		return -math.Log1p(x)
	}
	f := u - 1.0 // Sqrt(2)/2 < u < Sqrt(2)
	hfsq := 0.5 * f * f
	s := f / (2.0 + f)
	z := s * s
	R := z * (Lp1 + z*(Lp2+z*(Lp3+z*(Lp4+z*(Lp5+z*(Lp6+z*Lp7))))))
	// The explicit conversion rounds k·ln2_lo on its own, as log1p's
	// (k·ln2_lo + c) does, on targets that fuse multiply-adds.
	return -(float64(k)*Ln2Hi - ((hfsq - (s*(hfsq+R) + float64(float64(k)*Ln2Lo))) - f))
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
