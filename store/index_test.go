package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"varbench/internal/jsonx"
)

// TestIndexConfirmsCollidingHashes puts distinct cells that all carry one
// hash through the index's own hashed insert. Every probe then meets a
// matching hash, so only the confirm step, which compares fingerprint and
// key bytes, tells the cells apart, and a probe must continue past each
// mismatch. The cells outnumber the first tables, so growth rehashes a
// table whose slots all collide.
func TestIndexConfirmsCollidingHashes(t *testing.T) {
	const h = 0x9e3779b97f4a7c15
	var x index
	var cells [][2]string
	for i := 0; i < 100; i++ {
		for _, fp := range []string{"fp-a", "fp-b"} {
			cells = append(cells, [2]string{fmt.Sprintf("key-%d", i), fp})
		}
	}
	cells = append(cells, [2]string{"key-1", "fp-a0"})
	for i, c := range cells {
		put(&x, h, intern(&x, c[1]), segKindScore, c[0], float64(i), nil)
	}
	// A re-put of a colliding cell replaces its value in place, from the
	// frame bytes replay passes.
	put(&x, h, intern(&x, []byte(cells[7][1])), segKindScore, []byte(cells[7][0]), -1, nil)
	if got := x.count(""); got != len(cells) {
		t.Fatalf("%d cells, want %d", got, len(cells))
	}
	for i, c := range cells {
		want := float64(i)
		if i == 7 {
			want = -1
		}
		s, ok := find(&x, h, intern(&x, c[1]), c[0])
		if !ok {
			t.Fatalf("cell %q/%q not found", c[0], c[1])
		}
		if got := x.cell(x.slots[s].cell - 1); got.score != want || string(x.key(got)) != c[0] || x.fps[got.fp] != c[1] {
			t.Fatalf("cell %q/%q holds %v under %q/%q, want %v", c[0], c[1], got.score, x.key(got), x.fps[got.fp], want)
		}
	}
	for _, c := range [][2]string{{"key-100", "fp-a"}, {"key-1", "fp-c"}, {"key-", "fp-a"}} {
		if _, ok := find(&x, h, intern(&x, c[1]), c[0]); ok {
			t.Fatalf("absent cell %q/%q found", c[0], c[1])
		}
	}
}

// TestTornLengthsAllocateLittle: a final segment whose first frame declares
// a length no file here could hold opens as a torn tail, and the open sizes
// nothing from that length, so it allocates a few times the file, not the
// 2 GiB declared.
func TestTornLengthsAllocateLittle(t *testing.T) {
	filler := make([]byte, 64<<10)
	for name, frame := range map[string][]byte{
		// A checksum-valid frame whose key length is 2³¹ bytes.
		"key length": func() []byte {
			body := append([]byte{segKindScore, 0, 0, 0, 0x80}, filler...)
			frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
			frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body, segCRC))
			return append(frame, body...)
		}(),
		// A frame length the plausibility check lets through, 2³⁰ bytes,
		// that runs past the end of the file.
		"frame length": append([]byte{0, 0, 0, 0x40, 0, 0, 0, 0}, filler...),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, segName(1))
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := OpenSegLog(dir)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if n := s.Len(); n != 0 {
				t.Fatalf("%d cells from a torn frame", n)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
				t.Fatalf("torn tail not truncated: %v, %v", fi.Size(), err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d > 3*uint64(len(frame)) {
				t.Fatalf("open allocated %d bytes for a %d-byte segment", d, len(frame))
			}
		})
	}
}

// The cells the differential fuzz target addresses: keys with shared
// prefixes, the empty key, and one longer than a key chunk; three
// fingerprints, the empty one among them; and prefixes to count, one of
// them a whole key.
var (
	fuzzKeys = []string{
		"trial/seed=1/dataset=d/run=0/A",
		"trial/seed=1/dataset=d/run=0/B",
		"trial/seed=1/dataset=d/run=1/A",
		"failure/seed=1/dataset=d/run=0/A",
		"",
		"trial/" + strings.Repeat("x", keyChunk),
	}
	fuzzFPs      = []string{"fp-a", "fp-b", ""}
	fuzzPrefixes = []string{"", "trial/", "trial/seed=1/dataset=d/run=0", "trial/seed=1/dataset=d/run=0/A", "failure/", "zz"}
)

// A fuzzOp is one call of FuzzIndexMatchesReference's sequences, read from
// three bytes: the call, the cell, and a value.
type fuzzOp struct {
	call    byte // 0 Put, 1 PutJSON, 2 Get, 3 GetJSON, 4 Len, 5 CountPrefix
	key, fp string
	prefix  string
	score   float64
	payload any
}

func decodeFuzzOps(data []byte) []fuzzOp {
	var ops []fuzzOp
	for ; len(data) >= 3; data = data[3:] {
		cell, v := int(data[1]), data[2]
		op := fuzzOp{
			call:   data[0] % 6,
			key:    fuzzKeys[cell%len(fuzzKeys)],
			fp:     fuzzFPs[cell/len(fuzzKeys)%len(fuzzFPs)],
			prefix: fuzzPrefixes[cell%len(fuzzPrefixes)],
			// Any bit pattern: NaNs with payloads, infinities, -0.
			score: math.Float64frombits(uint64(v) * 0x9e3779b97f4a7c15),
		}
		if v%2 == 0 {
			op.payload = map[string]int{"n": int(v)}
		} else {
			op.payload = []float64{float64(v), math.NaN()}
		}
		ops = append(ops, op)
	}
	return ops
}

// entry is a cell's visible value in the fuzz target's reference map.
type entry struct {
	score    float64
	hasScore bool
	value    []byte
}

// FuzzIndexMatchesReference reads its bytes as a sequence of Put, PutJSON,
// Get, GetJSON, Len and CountPrefix calls, runs it through Mem and through
// SegLog, and checks every answer against a plain map. The SegLog closes
// and reopens midway, on segments small enough to rotate, so the replayed
// index must answer as the live one did. Re-puts switch cells between a
// score and a payload.
func FuzzIndexMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 0, 1, 0, 2, 3, 0, 0, 4, 0, 0, 5, 1, 0})
	f.Add([]byte{0, 5, 7, 1, 5, 8, 2, 5, 0, 3, 5, 0, 0, 11, 9, 5, 2, 0, 4, 0, 0})
	f.Add([]byte{1, 4, 2, 0, 4, 3, 0, 10, 255, 2, 10, 0, 3, 4, 0, 5, 4, 0, 1, 16, 6, 3, 16, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeFuzzOps(data)
		t.Run("mem", func(t *testing.T) {
			m := NewMem()
			ref := make(map[[2]string]entry)
			for i, op := range ops {
				applyFuzzOp(t, i, m, ref, op)
			}
			checkFuzzState(t, m, ref)
		})
		t.Run("seglog", func(t *testing.T) {
			dir := t.TempDir()
			cfg := defaultSegCfg
			cfg.segmentBytes = 2 << 10
			s, err := openSegLog(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := make(map[[2]string]entry)
			mid := len(ops) / 2
			for i, op := range ops[:mid] {
				applyFuzzOp(t, i, s, ref, op)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = openSegLog(dir, cfg); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			checkFuzzState(t, s, ref)
			for i, op := range ops[mid:] {
				applyFuzzOp(t, mid+i, s, ref, op)
			}
			checkFuzzState(t, s, ref)
		})
	})
}

// applyFuzzOp runs op on b and on the reference, and compares b's answer
// with the reference's.
func applyFuzzOp(t *testing.T, i int, b Backend, ref map[[2]string]entry, op fuzzOp) {
	t.Helper()
	cell := [2]string{op.key, op.fp}
	switch op.call {
	case 0:
		if err := b.Put(op.key, op.fp, op.score); err != nil {
			t.Fatalf("op %d: Put: %v", i, err)
		}
		ref[cell] = entry{score: op.score, hasScore: true}
	case 1:
		if err := b.PutJSON(op.key, op.fp, op.payload); err != nil {
			t.Fatalf("op %d: PutJSON: %v", i, err)
		}
		raw, err := jsonx.Marshal(op.payload)
		if err != nil {
			t.Fatal(err)
		}
		ref[cell] = entry{value: raw}
	case 2:
		checkFuzzGet(t, fmt.Sprintf("op %d", i), b, ref, cell)
	case 3:
		checkFuzzGetJSON(t, fmt.Sprintf("op %d", i), b, ref, cell)
	case 4:
		if got := b.Len(); got != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, got, len(ref))
		}
	case 5:
		if got, want := b.CountPrefix(op.prefix), refCount(ref, op.prefix); got != want {
			t.Fatalf("op %d: CountPrefix(%q) = %d, want %d", i, op.prefix, got, want)
		}
	}
}

// checkFuzzState compares every cell and count of b with the reference.
func checkFuzzState(t *testing.T, b Backend, ref map[[2]string]entry) {
	t.Helper()
	for _, key := range fuzzKeys {
		for _, fp := range fuzzFPs {
			checkFuzzGet(t, "state", b, ref, [2]string{key, fp})
			checkFuzzGetJSON(t, "state", b, ref, [2]string{key, fp})
		}
	}
	if got := b.Len(); got != len(ref) {
		t.Fatalf("state: Len = %d, want %d", got, len(ref))
	}
	for _, p := range fuzzPrefixes {
		if got, want := b.CountPrefix(p), refCount(ref, p); got != want {
			t.Fatalf("state: CountPrefix(%q) = %d, want %d", p, got, want)
		}
	}
}

func checkFuzzGet(t *testing.T, at string, b Backend, ref map[[2]string]entry, cell [2]string) {
	t.Helper()
	e := ref[cell]
	got, ok := b.Get(cell[0], cell[1])
	if ok != e.hasScore || math.Float64bits(got) != math.Float64bits(e.score) {
		t.Fatalf("%s: Get(%.40q, %q) = (%v, %v), want (%v, %v)", at, cell[0], cell[1], got, ok, e.score, e.hasScore)
	}
}

func checkFuzzGetJSON(t *testing.T, at string, b Backend, ref map[[2]string]entry, cell [2]string) {
	t.Helper()
	e := ref[cell]
	var got json.RawMessage
	ok, err := b.GetJSON(cell[0], cell[1], &got)
	if err != nil || ok != (e.value != nil) || ok && !bytes.Equal(got, e.value) {
		t.Fatalf("%s: GetJSON(%.40q, %q) = (%s, %v, %v), want (%s, %v)", at, cell[0], cell[1], got, ok, err, e.value, e.value != nil)
	}
}

func refCount(ref map[[2]string]entry, prefix string) int {
	n := 0
	for cell := range ref {
		if strings.HasPrefix(cell[0], prefix) {
			n++
		}
	}
	return n
}
