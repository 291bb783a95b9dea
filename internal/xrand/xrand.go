// Package xrand provides deterministic, splittable random number generation
// for benchmark experiments.
//
// The paper (Bouthillier et al., MLSys 2021, Appendix A) stresses that every
// source of variation in a learning pipeline must be independently seedable
// so that experiments are bit-reproducible. This package gives each source
// of variation (ξ component) its own independent stream derived from a root
// seed.
//
// The generator is xoshiro256** seeded through SplitMix64, a standard,
// well-tested combination with period 2^256-1 and no observable correlation
// between streams derived from distinct labels.
package xrand

import (
	"math"
	"math/bits"
	"strconv"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand seeds into full xoshiro state vectors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic pseudo-random stream. It is not safe for
// concurrent use; derive one Source per goroutine with Split.
type Source struct {
	s [4]uint64
	// cached second value of the last Box-Muller pair, see NormFloat64.
	gauss    float64
	hasGauss bool
}

// New returns a Source seeded from seed. Distinct seeds yield streams with no
// detectable correlation.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed resets the stream to the deterministic state derived from seed,
// discarding any cached values.
func (r *Source) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	r.gauss = 0
	r.hasGauss = false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// next runs one xoshiro256** step on the state (s0, s1, s2, s3): it returns
// the output and the new state. Uint64 steps the Source's own state; the
// bulk draws step a copy held in locals, which stays in registers for the
// whole fill, and store it back once.
func next(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return x, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	var x uint64
	x, s[0], s[1], s[2], s[3] = next(s[0], s[1], s[2], s[3])
	return x
}

// unit maps 64 random bits to [0, 1) with 53 bits of precision. The
// scaling is exact; the conversion only keeps arm64 from fusing it into
// the add of a caller's 2·unit(x) − 1, which the compiler spells u + u.
func unit(x uint64) float64 { return float64(float64(x>>11) / (1 << 53)) }

// Float64 returns a uniform sample in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return unit(r.Uint64())
}

// Float64s fills dst with uniform samples in [0, 1): exactly the values, and
// the stream consumption, of len(dst) successive Float64 calls.
func (r *Source) Float64s(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var x uint64
	for i := range dst {
		x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		dst[i] = unit(x)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Uniform returns a uniform sample in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// LogUniform returns a sample whose logarithm is uniform over
// [log(lo), log(hi)). Both bounds must be positive.
func (r *Source) LogUniform(lo, hi float64) float64 {
	return math.Exp(r.Uniform(math.Log(lo), math.Log(hi)))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless method keeps the distribution exactly uniform.
// The first draw is accepted with probability 1 - n/2^64, so the loop lives
// in intnRetry and the common path runs no loop. Intn itself is not
// inlined: the inliner prices it at 157, over its budget of 80. The
// bootstrap's resampling draws in bulk with SampleInto instead.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo >= bound || lo >= (-bound)%bound {
		return int(hi)
	}
	return r.intnRetry(bound)
}

// intnRetry redraws until Lemire's acceptance test passes. It consumes the
// stream exactly like the historical rejection loop: one Uint64 per attempt.
func (r *Source) intnRetry(bound uint64) int {
	thresh := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= thresh {
			return int(hi)
		}
	}
}

// SampleInto is the bulk with-replacement sampler of the bootstrap's
// buffered path. It is observationally identical to the equivalent
// sequence of Intn draws — same Uint64 consumption (one per Lemire
// attempt), same accepted indices — but runs the generator on a
// register-local state copy with the rejection threshold hoisted, removing
// the two non-inlinable calls per draw that dominate the per-element cost.
// TestSampleBulkMatchesIntn pins the equivalence.
//
// Lemire's acceptance test `lo >= bound || lo >= (-bound)%bound` reduces to
// `lo >= thresh` with thresh = (-bound)%bound, since thresh < bound: both
// sides of the || are implied by it and imply it respectively, so hoisting
// thresh changes no accept/reject decision.

// SampleInto fills dst with with-replacement draws from src:
// bit-identical to `for i := range dst { dst[i] = src[r.Intn(len(src))] }`.
// It is generic so that element types beyond float64 (e.g. measurement
// pairs) materialize resamples through the same bulk path. It panics if src
// is empty and dst is not, as Intn would.
func SampleInto[T any](r *Source, dst, src []T) {
	if len(src) == 0 {
		if len(dst) > 0 {
			panic("xrand: SampleInto from an empty sample")
		}
		return
	}
	bound := uint64(len(src))
	thresh := (-bound) % bound
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var x uint64
	for i := range dst {
		for {
			x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
			hi, lo := bits.Mul64(x, bound)
			if lo >= thresh {
				dst[i] = src[hi]
				break
			}
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// NormFloat64 returns a standard normal sample using the Marsaglia polar
// method. The second value of each generated pair is cached, so consecutive
// draws consume a deterministic amount of the underlying stream.
func (r *Source) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		g0, g1, ok := polar(r.Uint64(), r.Uint64())
		if ok {
			r.gauss = g1
			r.hasGauss = true
			return g0
		}
	}
}

// NormFloat64s fills dst with standard normal samples: exactly the values,
// and the stream consumption, of len(dst) successive NormFloat64 calls. It
// starts with a cached second value, when there is one, and caches the
// second value of its last pair when len(dst) leaves it unused.
func (r *Source) NormFloat64s(dst []float64) {
	if len(dst) == 0 {
		return
	}
	if r.hasGauss {
		r.hasGauss = false
		dst[0] = r.gauss
		dst = dst[1:]
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var x, y uint64
	for len(dst) > 0 {
		x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		y, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		g0, g1, ok := polar(x, y)
		if !ok {
			continue
		}
		dst[0] = g0
		if len(dst) == 1 {
			r.gauss, r.hasGauss = g1, true
			break
		}
		dst[1] = g1
		dst = dst[2:]
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// polar is one attempt of the Marsaglia polar method on the uniform draws
// unit(x) and unit(y): it returns two independent standard normals, or ok
// false when the point falls outside the unit disc or on its centre.
func polar(x, y uint64) (g0, g1 float64, ok bool) {
	u := float64(2*unit(x)) - 1
	v := float64(2*unit(y)) - 1
	s := float64(u*u) + float64(v*v)
	if s >= 1 || s == 0 {
		return 0, 0, false
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	return u * f, v * f, true
}

// Normal returns a sample from N(mu, sigma^2).
func (r *Source) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.NormFloat64()
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool { return r.Float64() < p }

// ShuffleInts shuffles p in place (Fisher-Yates).
func (r *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Split derives an independent child stream identified by label. The child
// depends only on the parent's original identity (not on how much of the
// parent has been consumed), so pipeline components may be reordered without
// perturbing one another's streams: this is what lets the benchmark vary one
// source of variation while holding all others fixed.
//
// Split stays cheap enough to inline, so a child that does not escape its
// caller, as in New(seed).Split(label).Normal(mu, sigma), lives on the
// caller's stack: the derivation is in child.
func (r *Source) Split(label string) *Source {
	return &Source{s: r.child(label)}
}

// child returns the state of the child stream Split creates for label: the
// state Seed derives from SplitSeed(HashLabel(label)).
func (r *Source) child(label string) [4]uint64 {
	var c Source
	c.Seed(r.SplitSeed(HashLabel(label)))
	return c.s
}

// SplitSeed returns the seed of the child stream Split would create for the
// label h hashes: Seed-ing a Source with it continues the exact same
// sequence as the equivalent Split, without allocating. The seed folds h
// with the parent's whole current state, so a child depends on the parent's
// identity alone only while the parent is unconsumed: derive children from
// a dedicated, never-consumed parent, as Streams does.
func (r *Source) SplitSeed(h LabelHash) uint64 {
	return uint64(h) ^ r.s[0] ^ rotl(r.s[1], 13) ^ rotl(r.s[2], 29) ^ rotl(r.s[3], 47)
}

// A LabelHash is the 64-bit FNV-1a hash of a Split label. FNV-1a folds the
// label left to right, so a hash can be continued: hot paths that derive
// many child streams from labels sharing a prefix (the bootstrap engines'
// "<prefix><index>" shard labels) hash the prefix once and append each
// suffix, with no label buffer.
type LabelHash uint64

// HashLabel returns the hash of label.
func HashLabel(label string) LabelHash {
	const offset = 0xcbf29ce484222325
	return fnv1a(offset, label)
}

// AppendInt returns the hash of the label h hashes followed by the decimal
// form of v, spelled as strconv.AppendInt spells it.
func (h LabelHash) AppendInt(v int) LabelHash {
	var buf [20]byte
	return fnv1a(h, strconv.AppendInt(buf[:0], int64(v), 10))
}

// fnv1a continues the FNV-1a 64-bit hash h over the bytes of b.
func fnv1a[T string | []byte](h LabelHash, b T) LabelHash {
	const prime = 0x100000001b3
	for i := 0; i < len(b); i++ {
		h ^= LabelHash(b[i])
		h *= prime
	}
	return h
}
