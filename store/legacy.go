// The legacy JSONL record format. Before seglog became the only durable
// engine, a store directory held one append-only trials.jsonl log with one
// JSON record per line. The format survives as Dump's output, a read-only
// view of a store: nothing reads it back, and OpenSegLog neither reads nor
// touches a trials.jsonl it finds.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// record is one legacy line. Score is a strconv-formatted float ('g', -1),
// which round-trips every finite float64 exactly and — unlike a JSON number
// — also represents NaN and ±Inf, so a dumped score parses back to the
// bits that were Put. Value is a JSON payload record's body (PutJSON); a
// line carries one or the other.
type record struct {
	Key         string          `json:"key"`
	Fingerprint string          `json:"fp"`
	Score       string          `json:"score,omitempty"`
	Value       json.RawMessage `json:"value,omitempty"`
}

// Dump writes every cell as one legacy JSONL line, sorted by (key,
// fingerprint). Dump reads the in-memory index, so it also works after
// Close.
func (s *SegLog) Dump(w io.Writer) error {
	type cell struct {
		key, fp string
		e       entry
	}
	s.mu.Lock()
	cells := make([]cell, 0, s.idx.count(""))
	for fp, keys := range s.idx {
		for key, e := range keys {
			cells = append(cells, cell{key, fp, e})
		}
	}
	s.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		return a.key < b.key || a.key == b.key && a.fp < b.fp
	})

	bw := bufio.NewWriter(w)
	for _, c := range cells {
		rec := record{Key: c.key, Fingerprint: c.fp, Value: c.e.value}
		if c.e.hasScore {
			rec.Score = strconv.FormatFloat(c.e.score, 'g', -1, 64)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("store: %s: dumping %q: %w", s.dir, rec.Key, err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
