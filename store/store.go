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
	"fmt"
	"hash/maphash"
	"strconv"
)

// index is the in-memory view Mem and SegLog share: the visible value of
// every (key, fingerprint) cell. It keeps no pointer per cell:
//
//   - cells holds one fixed-size record per cell (score, kind, interned
//     fingerprint, where its key lives), in chunks of cellChunk records;
//   - keys holds every key's bytes once, back to back, in chunks of at
//     least keyChunk bytes that are never reallocated;
//   - fps interns each fingerprint once; a store holds one per spec;
//   - payloads holds the JSON payloads, by cell, the only cell values that
//     own memory of their own;
//   - slots is an open-addressing table, at most 3/4 full and probed
//     linearly, from 32 bits of a 64-bit hash of (fingerprint, key) to a
//     cell, where the fingerprint enters as its interned number. A hit is
//     confirmed by comparing the cell's fingerprint number and key bytes.
//     A fingerprint the store never saw misses before any hashing.
//
// Growth adds a chunk, or rehashes the table's 8-byte slots from the hash
// bits they hold: it moves hashes and small integers, never key bytes. The
// chunks and the table hold no pointers, so the garbage collector never
// scans them, however many cells the store holds. The zero index is empty
// and allocates nothing until its first cell. The owner serializes access.
type index struct {
	cells    [][]cell
	n        uint32 // cells in use
	keys     [][]byte
	fps      []string
	fpIDs    map[string]uint32
	lastFP   uint32 // the fingerprint found last: runs of cells share one
	slots    []slot
	payloads map[uint32][]byte
}

// Chunk sizes: 512 cells of 32 bytes, and 16 KiB of key bytes.
const (
	cellChunk = 512
	keyChunk  = 16 << 10
)

// cell is one cell's record.
type cell struct {
	score float64 // a score cell's value
	chunk uint32  // the key is keys[chunk][off:][:klen]
	off   uint32
	klen  uint32
	fp    uint32 // into fps
	kind  byte   // segKindScore or segKindJSON
}

// slot is one entry of the table: the low 32 bits of its cell's hash, which
// also place the slot when the table grows, and the cell's number plus one;
// 0 marks an empty slot.
type slot struct {
	hash uint32
	cell uint32
}

// cellSeed keys the index hash. Nothing persists the hash, so every process
// draws its own.
var cellSeed = maphash.MakeSeed()

// cellHash hashes the cell (key, fingerprint number f). cellHashBytes
// hashes the same cell from a frame's key bytes, to the same value.
func cellHash(key string, f uint32) uint64 {
	return maphash.String(cellSeed, key) ^ uint64(f)*0x9e3779b97f4a7c15
}

func cellHashBytes(key []byte, f uint32) uint64 {
	return maphash.Bytes(cellSeed, key) ^ uint64(f)*0x9e3779b97f4a7c15
}

// cell returns the record of cell id.
func (x *index) cell(id uint32) *cell {
	return &x.cells[id/cellChunk][id%cellChunk]
}

// key returns the bytes of c's key.
func (x *index) key(c *cell) []byte {
	return x.keys[c.chunk][c.off:][:c.klen]
}

// lookup returns the record of the cell (key, fp), if the index holds it.
func (x *index) lookup(key, fp string) (uint32, *cell, bool) {
	f, ok := fpNumber(x, fp)
	if !ok {
		return 0, nil, false
	}
	i, ok := find(x, cellHash(key, f), f, key)
	if !ok {
		return 0, nil, false
	}
	id := x.slots[i].cell - 1
	return id, x.cell(id), true
}

// score returns the score of the cell (key, fp), if it holds one.
func (x *index) score(key, fp string) (float64, bool) {
	_, c, ok := x.lookup(key, fp)
	if !ok || c.kind != segKindScore {
		return 0, false
	}
	return c.score, true
}

// payload returns the JSON payload of the cell (key, fp), if it holds one.
func (x *index) payload(key, fp string) ([]byte, bool) {
	id, c, ok := x.lookup(key, fp)
	if !ok || c.kind != segKindJSON {
		return nil, false
	}
	raw := x.payloads[id]
	return raw, raw != nil
}

// set records the visible value of the cell (key, fp): the score v, or,
// when kind is segKindJSON, the payload raw, which the index keeps.
func (x *index) set(kind byte, key, fp string, v float64, raw []byte) {
	f := intern(x, fp)
	put(x, cellHash(key, f), f, kind, key, v, raw)
}

// put is set for the cell (key, fingerprint number f) whose hash is h,
// from a caller's string or from a frame's bytes.
func put[K string | []byte](x *index, h uint64, f uint32, kind byte, key K, v float64, raw []byte) {
	x.reserve(1)
	i, ok := find(x, h, f, key)
	var id uint32
	if ok {
		id = x.slots[i].cell - 1
	} else {
		id = add(x, f, key)
		x.slots[i] = slot{hash: uint32(h), cell: id + 1}
	}
	c := x.cell(id)
	if kind == segKindJSON {
		if x.payloads == nil {
			x.payloads = make(map[uint32][]byte)
		}
		x.payloads[id] = raw
	} else if c.kind == segKindJSON {
		delete(x.payloads, id)
	}
	c.kind, c.score = kind, v
}

// find returns the slot of the cell (key, fingerprint number f) whose hash
// is h, or, when the table does not hold it, the empty slot where it
// belongs. The table must have an empty slot.
func find[K string | []byte](x *index, h uint64, f uint32, key K) (uint32, bool) {
	mask := uint32(len(x.slots) - 1)
	tag := uint32(h)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s.cell == 0 {
			return i, false
		}
		if s.hash != tag {
			continue
		}
		c := x.cell(s.cell - 1)
		if c.fp == f && string(x.key(c)) == string(key) {
			return i, true
		}
	}
}

// add appends a record for the new cell (key, fingerprint number f), with
// its key bytes, and returns its number.
func add[K string | []byte](x *index, f uint32, key K) uint32 {
	id := x.n
	if id%cellChunk == 0 {
		x.cells = append(x.cells, make([]cell, cellChunk))
	}
	x.n++
	last := len(x.keys) - 1
	if last < 0 || len(x.keys[last])+len(key) > cap(x.keys[last]) {
		x.keys = append(x.keys, make([]byte, 0, max(keyChunk, len(key))))
		last++
	}
	c := x.cell(id)
	c.chunk, c.off, c.klen = uint32(last), uint32(len(x.keys[last])), uint32(len(key))
	x.keys[last] = append(x.keys[last], key...)
	c.fp = f
	return id
}

// fpNumber returns the number of fingerprint fp, if the index interned it.
func fpNumber[K string | []byte](x *index, fp K) (uint32, bool) {
	if len(x.fps) > 0 && x.fps[x.lastFP] == string(fp) {
		return x.lastFP, true
	}
	f, ok := x.fpIDs[string(fp)]
	if ok {
		x.lastFP = f
	}
	return f, ok
}

// intern returns the number of fingerprint fp, interning it first if new.
func intern[K string | []byte](x *index, fp K) uint32 {
	if f, ok := fpNumber(x, fp); ok {
		return f
	}
	if x.fpIDs == nil {
		x.fpIDs = make(map[string]uint32)
	}
	f, s := uint32(len(x.fps)), string(fp)
	x.fps = append(x.fps, s)
	x.fpIDs[s] = f
	x.lastFP = f
	return f
}

// reserve grows the table, if needed, so that n more cells leave it at most
// 3/4 full. Growth rehashes slots from the hash bits they hold.
func (x *index) reserve(n int) {
	need := int(x.n) + n
	if need*4 <= len(x.slots)*3 {
		return
	}
	size := max(len(x.slots), 8)
	for size*3 < need*4 {
		size *= 2
	}
	old := x.slots
	x.slots = make([]slot, size)
	mask := uint32(size - 1)
	for _, s := range old {
		if s.cell == 0 {
			continue
		}
		i := s.hash & mask
		for x.slots[i].cell != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}

// count returns the number of cells whose key starts with prefix.
func (x *index) count(prefix string) int {
	if prefix == "" {
		return int(x.n)
	}
	n := 0
	for id := range x.n {
		if k := x.key(x.cell(id)); len(k) >= len(prefix) && string(k[:len(prefix)]) == prefix {
			n++
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
