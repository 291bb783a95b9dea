// The legacy JSONL record format. Before seglog became the only durable
// engine, a store directory held one append-only trials.jsonl log with one
// JSON record per line. The format survives in exactly two places:
// OpenSegLog imports a legacy log it finds (importLegacy), and Dump prints
// any seglog in it — so a dump is human-readable and is itself an
// importable legacy log.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// legacyLogName is the legacy log's file name inside a store directory; a
// completed import renames it to legacyLogName + ".imported".
const legacyLogName = "trials.jsonl"

// record is one legacy line. Score is a strconv-formatted float ('g', -1),
// which round-trips every finite float64 exactly and — unlike a JSON number
// — also represents NaN and ±Inf, so a pipeline returning a non-finite
// score resumes to the identical value. Value is a JSON payload record's
// body (PutJSON); a line carries one or the other.
type record struct {
	Key         string          `json:"key"`
	Fingerprint string          `json:"fp"`
	Score       string          `json:"score,omitempty"`
	Value       json.RawMessage `json:"value,omitempty"`
}

// importLegacy replays a legacy dir/trials.jsonl into the log and retires
// it, in this order:
//
//  1. take the file's flock, so a live pre-upgrade writer keeps it and
//     this open fails with ErrLocked instead of losing that writer's
//     appends;
//  2. replay every record through the normal Put path;
//  3. Flush, so the replayed records are durable;
//  4. rename the file to trials.jsonl.imported.
//
// The import therefore runs once. A crash before the rename only repeats
// it, which is harmless: last-record-wins replays the same values. An
// unparseable final line without a newline is the signature of a process
// killed mid-append and is skipped; garbage anywhere else is refused with
// its file:line before anything is replayed. Without a legacy log the
// import costs one failed open.
func (s *SegLog) importLegacy() error {
	path := filepath.Join(s.dir, legacyLogName)
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	if err := lockFile(f); err != nil {
		return err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	cells, err := parseLegacy(path, data)
	if err != nil {
		return err
	}
	for _, c := range cells {
		if c.e.hasScore {
			err = s.Put(c.rec.Key, c.rec.Fingerprint, c.e.score)
		} else {
			err = s.append(segKindJSON, c.rec.Key, c.rec.Fingerprint, c.e.value, c.e)
		}
		if err != nil {
			return err
		}
	}
	if err := s.Flush(); err != nil {
		return err
	}
	if err := os.Rename(path, path+".imported"); err != nil {
		return fmt.Errorf("store: retiring imported log: %w", err)
	}
	return nil
}

// legacyCell is one decoded legacy record with its index entry.
type legacyCell struct {
	rec record
	e   entry
}

// parseLegacy decodes a legacy log in log order. Empty lines and records
// with neither a score nor a value carry nothing and are dropped.
func parseLegacy(path string, data []byte) ([]legacyCell, error) {
	var cells []legacyCell
	for lineno := 1; len(data) > 0; lineno++ {
		line, rest, terminated := bytes.Cut(data, []byte("\n"))
		data = rest
		if len(line) == 0 {
			continue
		}
		rec, e, err := decodeLegacyLine(path, lineno, line)
		if err != nil {
			if !terminated {
				break // torn final line: the writer died mid-append
			}
			return nil, err
		}
		if e.hasScore || e.value != nil {
			cells = append(cells, legacyCell{rec, e})
		}
	}
	return cells, nil
}

// decodeLegacyLine parses one legacy line. A score wins over a value on the
// (never written) line that carries both.
func decodeLegacyLine(path string, lineno int, line []byte) (record, entry, error) {
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return record{}, entry{}, fmt.Errorf("store: %s:%d: corrupt record: %w", path, lineno, err)
	}
	if rec.Score == "" {
		return rec, entry{value: rec.Value}, nil
	}
	v, err := strconv.ParseFloat(rec.Score, 64)
	if err != nil {
		return record{}, entry{}, fmt.Errorf("store: %s:%d: bad score %q: %w", path, lineno, rec.Score, err)
	}
	return rec, entry{score: v, hasScore: true}, nil
}

// Dump writes every cell as one legacy JSONL line, sorted by (key,
// fingerprint). The output is a faithful, importable legacy log: placed as
// trials.jsonl in a fresh directory, it opens to the same cells, and a
// dump of that store is byte-identical. Dump reads the in-memory index, so
// it also works after Close.
func (s *SegLog) Dump(w io.Writer) error {
	s.mu.Lock()
	cells := make([]legacyCell, 0, s.idx.count(""))
	for fp, keys := range s.idx {
		for key, e := range keys {
			cells = append(cells, legacyCell{record{Key: key, Fingerprint: fp}, e})
		}
	}
	s.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i].rec, cells[j].rec
		return a.Key < b.Key || a.Key == b.Key && a.Fingerprint < b.Fingerprint
	})

	bw := bufio.NewWriter(w)
	for _, c := range cells {
		rec := c.rec
		rec.Value = c.e.value
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
