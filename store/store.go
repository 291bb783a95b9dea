// Package store provides durable, content-addressed trial stores that make
// varbench collection resumable and let overlapping studies share
// identical (seed, trial) cells instead of recomputing them. Every engine
// implements the Backend interface (see backend.go); three ship: the
// segmented binary log with group commit (SegLog), the one durable engine;
// an in-memory store (Mem); and a fault-injection wrapper (FaultInject).
// OpenDSN selects one by DSN ("seglog:DIR", "mem:",
// "faultinject:SCHEDULE:INNER_DSN"; a bare path means seglog). The
// cross-backend semantics — cell identity, last-record-wins, bit-exact
// floats, the Flush durability barrier — live on Backend.
//
// Every record is addressed by a (key, fingerprint) pair. The key names one
// deterministic trial identity — varbench builds it from the experiment or
// study seed, the dataset (or (source, realization) cell, whose seed root
// derives from the study seed and realization index), the trial index and
// the pipeline side (A/B). The fingerprint hashes the parts of the spec
// that change what the trial measures — the varied-source set and the
// caller's pipeline ID — so a stale cache is rejected (the cell is simply
// recomputed and appended under the new fingerprint), never silently
// reused. Because trial seeds in varbench depend only on (seed, dataset,
// index), a record is valid for any MaxRuns/K, any Parallelism and any
// stopping outcome: raising a study's budget or re-running after an
// interrupt reuses every completed trial bit-for-bit.
//
// The log is append-only: rewrites never happen, and duplicate
// (key, fingerprint) appends (e.g. two concurrent studies sharing one
// store racing on a shared cell) are harmless because both sides computed
// the same deterministic score; the last record wins the in-memory index.
// One PROCESS owns a store directory at a time: OpenSegLog takes an
// exclusive advisory lock (auto-released by the kernel when the process
// exits, however it dies) and fails fast with ErrLocked when another live
// process holds it, which is what makes the tail repair safe.
//
// Dump prints a store directory in the line format of the retired JSONL
// engine (see legacy.go), as a read-only view that takes no lock and
// writes nothing; nothing reads that format back. A store is a cache: a trial cell is a pure function of its key and
// fingerprint, so a trials.jsonl that engine left in a directory is never
// read, and the next run recomputes its trials to the same values.
//
// The store does not hash pipeline code. Runs sharing a directory must
// execute the same pipeline per (PipelineID, side); use one directory per
// pipeline, or distinct pipeline IDs, when in doubt.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// entry is one cell's visible value in a backend's in-memory index.
type entry struct {
	score    float64
	hasScore bool
	value    json.RawMessage
}

// index is the in-memory view Mem and SegLog share: fingerprint → key →
// entry. A lookup is two map probes on the caller's own strings, so no
// combined cell key is ever built; a store holds one fingerprint per spec,
// so the outer map stays small. The owner serializes access.
type index map[string]map[string]entry

// get returns the entry of the cell (key, fp).
func (x index) get(key, fp string) (entry, bool) {
	e, ok := x[fp][key]
	return e, ok
}

// set records e as the visible value of the cell (key, fp).
func (x index) set(key, fp string, e entry) {
	cells, ok := x[fp]
	if !ok {
		cells = make(map[string]entry)
		x[fp] = cells
	}
	cells[key] = e
}

// count returns the number of cells whose key starts with prefix.
func (x index) count(prefix string) int {
	n := 0
	for _, cells := range x {
		if prefix == "" {
			n += len(cells)
			continue
		}
		for key := range cells {
			if strings.HasPrefix(key, prefix) {
				n++
			}
		}
	}
	return n
}

// Fingerprint hashes canonical spec parts into a short hex digest. Parts
// are length-delimited, so ("ab", "c") and ("a", "bc") differ.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TrialKey names one deterministic trial identity: the collection seed (an
// experiment's root seed, or a variance cell's realization root), the
// dataset label, the trial index and the pipeline side ("A"/"B"):
// "trial/seed=SEED/dataset=DATASET/run=INDEX/SIDE". varbench builds every
// store key through this one function, so external tools can address the
// same cells.
func TrialKey(seed uint64, dataset string, index int, side string) string {
	return cellKey("trial", seed, dataset, index, side)
}

// FailureKey names one quarantined trial cell, addressing the same
// (seed, dataset, index, side) coordinates as TrialKey under the failure/
// prefix. The payload is the trial's attempt history (varbench's
// failureRecord JSON); it is written for audit when a non-FailFast run
// exhausts the cell's retry budget and never read back as a result — a
// later successful resume writes the trial/ key and the failure record
// simply stays behind as history.
func FailureKey(seed uint64, dataset string, index int, side string) string {
	return cellKey("failure", seed, dataset, index, side)
}

// cellKey spells "FAMILY/seed=SEED/dataset=DATASET/run=INDEX/SIDE" with
// decimal numbers, in one allocation for keys of up to 96 bytes.
func cellKey(family string, seed uint64, dataset string, index int, side string) string {
	var buf [96]byte
	b := append(buf[:0], family...)
	b = append(b, "/seed="...)
	b = strconv.AppendUint(b, seed, 10)
	b = append(b, "/dataset="...)
	b = append(b, dataset...)
	b = append(b, "/run="...)
	b = strconv.AppendInt(b, int64(index), 10)
	b = append(b, '/')
	b = append(b, side...)
	return string(b)
}
