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

// Dump writes every cell of the store in dir as one legacy JSONL line,
// sorted by (key, fingerprint). It replays the segments without opening
// the store: it takes no lock, so it also reads a store a running process
// holds, and it writes nothing. A torn tail in the final segment, which
// the next open truncates, is skipped; a bad frame in a sealed segment is
// an error.
func Dump(dir string, w io.Writer) error {
	var idx index
	if _, _, _, err := replay(dir, &idx); err != nil {
		return err
	}
	type row struct {
		key, fp string
		id      uint32
	}
	rows := make([]row, idx.n)
	for id := range idx.n {
		c := idx.cell(id)
		rows[id] = row{string(idx.key(c)), idx.fps[c.fp], id}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		return a.key < b.key || a.key == b.key && a.fp < b.fp
	})

	bw := bufio.NewWriter(w)
	for _, r := range rows {
		rec := record{Key: r.key, Fingerprint: r.fp}
		switch c := idx.cell(r.id); c.kind {
		case segKindScore:
			rec.Score = strconv.FormatFloat(c.score, 'g', -1, 64)
		case segKindJSON:
			rec.Value = idx.payloads[r.id]
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("store: %s: dumping %q: %w", dir, rec.Key, err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
