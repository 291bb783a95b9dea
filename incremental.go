package varbench

import (
	"fmt"
	"math"
	"strconv"

	"varbench/internal/compare"
	"varbench/internal/stats"
	"varbench/store"
)

// This file is the root-package face of the incremental bootstrap engine
// (internal/stats/incremental.go → internal/compare.AnalysisState): the
// batch loop in experiment.go and the streaming Stream front end both
// thread ONE resumable analysis state through all batch boundaries via the
// incAnalysis helper below, instead of re-running the full K-resample
// bootstrap — O(K × n) total resample-extension work. With a store
// attached the state is a cache of the final analysis: an experiment saves
// it once per dataset, when the run returns, and a Stream on Flush; a
// resumed run verifies the replayed prefix against it instead of
// re-extending it.

// analysisSnapshot is the JSON payload persisted per analysis state (see
// store.AnalysisKey for the key/fingerprint scheme). State is the binary
// accumulator blob (bit-exact float round-trip; marshals as base64), Hash
// the hex prefix hash of the N score pairs the state has consumed — no
// float-typed JSON fields, so NaN-safety is moot by construction.
type analysisSnapshot struct {
	N     int    `json:"n"`
	Hash  string `json:"hash"`
	State []byte `json:"state"`
}

// pairHasher folds score pairs into an FNV-1a running hash, in arrival
// order over the little-endian float bit patterns. Restored snapshots are
// verified against the hash of the replayed prefix: a mismatch means the
// persisted state was built from different scores (a poisoned or foreign
// store), and the state is discarded and recomputed — never silently
// served — matching the store's fingerprint philosophy.
type pairHasher struct {
	h uint64
	n int
}

func newPairHasher() pairHasher { return pairHasher{h: 14695981039346656037} }

func (p *pairHasher) add(a, b float64) {
	const prime = 1099511628211
	for _, bits := range [2]uint64{math.Float64bits(a), math.Float64bits(b)} {
		for s := 0; s < 64; s += 8 {
			p.h ^= bits >> s & 0xff
			p.h *= prime
		}
	}
	p.n++
}

// incAnalysis wraps a compare.AnalysisState with prefix verification and
// store persistence. Feeding is idempotent over a restored prefix: pairs
// the restored state already consumed are hash-verified and skipped, pairs
// beyond it extend the state. All methods must be called from one
// goroutine (extensions parallelize internally).
type incAnalysis struct {
	crit    compare.PAB
	seed    uint64
	workers int
	state   *compare.AnalysisState

	hasher       pairHasher
	restoredN    int // pairs covered by the restored snapshot (0 = fresh)
	restoredHash uint64

	st      store.Backend // nil: no persistence
	key, fp string

	pairBuf []stats.Pair // reusable batch staging
}

// newIncAnalysis builds the analysis state, resuming from a persisted
// snapshot when st holds a valid one under (key, fp). Restore failures of
// any kind fall back to a fresh state — recomputing is always correct.
func newIncAnalysis(crit compare.PAB, seed uint64, workers int, st store.Backend, key, fp string) (*incAnalysis, error) {
	ia := &incAnalysis{
		crit: crit, seed: seed, workers: workers,
		hasher: newPairHasher(),
		st:     st, key: key, fp: fp,
	}
	state, err := crit.NewAnalysis(seed, workers)
	if err != nil {
		return nil, err
	}
	ia.state = state
	if st == nil {
		return ia, nil
	}
	var snap analysisSnapshot
	ok, err := st.GetJSON(key, fp, &snap)
	if err != nil || !ok || snap.N <= 0 {
		return ia, nil
	}
	restored, err := crit.RestoreAnalysis(snap.State, workers)
	if err != nil || restored.N() != snap.N || restored.Seed() != seed {
		return ia, nil
	}
	h, err := strconv.ParseUint(snap.Hash, 16, 64)
	if err != nil {
		return ia, nil
	}
	ia.state = restored
	ia.restoredN = snap.N
	ia.restoredHash = h
	return ia, nil
}

// n returns how many pairs the state currently covers — ahead of the pairs
// fed so far while a restored snapshot is being replayed.
func (ia *incAnalysis) n() int { return ia.state.N() }

// fed returns how many pairs have been fed (replayed or extended).
func (ia *incAnalysis) fed() int { return ia.hasher.n }

// feed consumes the newly collected pairs scoresA[lo:hi]/scoresB[lo:hi].
// Calls must be contiguous (each lo equals the previous hi). Pairs the
// restored state already covers are verified against the snapshot's prefix
// hash and skipped; on hash mismatch the restored state is discarded and
// rebuilt from the scores collected so far. Pairs beyond the restored
// prefix extend the state — bit-identically to a from-scratch analysis.
func (ia *incAnalysis) feed(scoresA, scoresB []float64, lo, hi int) error {
	if ia.hasher.n != lo {
		return fmt.Errorf("varbench: analysis fed pairs [%d:%d), want contiguous from %d", lo, hi, ia.hasher.n)
	}
	for i := lo; i < hi; i++ {
		ia.hasher.add(scoresA[i], scoresB[i])
		if ia.restoredN > 0 && ia.hasher.n == ia.restoredN && ia.hasher.h != ia.restoredHash {
			// The replayed scores disagree with what the snapshot consumed:
			// rebuild from scratch over everything observed so far.
			fresh, err := ia.crit.NewAnalysis(ia.seed, ia.workers)
			if err != nil {
				return err
			}
			if err := fresh.Extend(ia.pairs(scoresA[:i+1], scoresB[:i+1])); err != nil {
				return err
			}
			ia.state = fresh
			ia.restoredN = 0
		}
	}
	if start := ia.state.N(); start < hi {
		if start < lo {
			return fmt.Errorf("varbench: analysis state at %d pairs behind batch start %d", start, lo)
		}
		if err := ia.state.Extend(ia.pairs(scoresA[start:hi], scoresB[start:hi])); err != nil {
			return err
		}
	}
	return nil
}

// settle makes the state cover exactly the pairs fed so far, which a and b
// hold. A restored snapshot longer than the replay (it came from a longer
// run) is discarded and the state rebuilt from the fed pairs — correct by
// construction — so a result always describes exactly the pairs its caller
// saw.
func (ia *incAnalysis) settle(a, b []float64) error {
	if ia.state.N() == ia.hasher.n {
		return nil
	}
	fresh, err := ia.crit.NewAnalysis(ia.seed, ia.workers)
	if err != nil {
		return err
	}
	if err := fresh.Extend(ia.pairs(a, b)); err != nil {
		return err
	}
	ia.state = fresh
	ia.restoredN = 0
	return nil
}

// pairs zips equal-length score slices into the reusable staging buffer.
func (ia *incAnalysis) pairs(a, b []float64) []stats.Pair {
	if cap(ia.pairBuf) < len(a) {
		ia.pairBuf = make([]stats.Pair, len(a))
	}
	buf := ia.pairBuf[:len(a)]
	for i := range a {
		buf[i] = stats.Pair{A: a[i], B: b[i]}
	}
	return buf
}

// save persists the current state snapshot (no-op without a store). The
// last write wins on restore.
func (ia *incAnalysis) save() error {
	if ia.st == nil {
		return nil
	}
	if ia.state.N() > ia.hasher.n {
		// Mid-replay of a restored snapshot: the state covers pairs whose
		// hash we cannot attest yet, and the store already holds this very
		// snapshot — rewriting it adds nothing.
		return nil
	}
	blob, err := ia.state.Snapshot()
	if err != nil {
		return err
	}
	return ia.st.PutJSON(ia.key, ia.fp, analysisSnapshot{
		N:     ia.state.N(),
		Hash:  strconv.FormatUint(ia.hasher.h, 16),
		State: blob,
	})
}

// comparison evaluates the three-zone decision on the state and shapes it
// as the public Comparison. Callers must only evaluate when the state
// covers exactly the pairs they mean to report on (state.N() == fed).
func (ia *incAnalysis) comparison() (Comparison, error) {
	res, err := ia.state.Evaluate()
	if err != nil {
		return Comparison{}, err
	}
	meanA, meanB := ia.state.Means()
	return newComparison(res, meanA, meanB, ia.state.N()), nil
}

// analysisFingerprint hashes everything that must match for a persisted
// experiment analysis to be resumable into this run: the collection spec
// (whose scores feed the state), the kernel identity, the resample count
// and the analysis seed — the shape NewStream uses. An experiment's result
// depends on the final state alone, under either stopping policy. The
// state does not depend on γ or the level, which apply when it is
// evaluated, nor on the budget: a raised MaxRuns resumes the saved state,
// and settle rebuilds one that covers more pairs than the run.
func (e *Experiment) analysisFingerprint(seed uint64) string {
	return store.Fingerprint(
		"varbench/analysis/v2",
		e.specFingerprint(),
		fmt.Sprintf("kernel=%s/k=%d/seed=%d", stats.AccPAB.ID(), e.Bootstrap, seed),
	)
}

// growFloats extends s by n zero slots in place, amortizing capacity like
// append — without the append(s, make([]float64, n)...) pattern's temporary
// chunk allocation per batch.
func growFloats(s []float64, n int) []float64 {
	if free := cap(s) - len(s); free < n {
		grown := make([]float64, len(s), max(2*cap(s), len(s)+n))
		copy(grown, s)
		s = grown
	}
	return s[: len(s)+n : cap(s)]
}
