package varbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"varbench/internal/ingest"
)

// This file is the ingestion side of the command line: varbench watch
// tails a growing score file and feeds a Stream, and varbench compare
// parses its score files with ParseScore. Both commands read a plain
// `a,b` or `score` line in one pass with ParseScore's number scanner;
// every other line goes to ParseScorePair (watch, through the tailer when
// a read cuts the line) or to compare's line parser, which say what a line
// means. The tailer and the parsers are exported so other sidecars (log
// shippers, fleet agents) can reuse the exact same framing and syntax
// rules — which also keeps a resumed watch byte-identical: parsing is a
// pure function of the bytes.

// A LineTailer incrementally splits an append-only byte stream into lines.
// Feed it chunks of any size — reads racing a writer may split a line at
// any byte — and it buffers the trailing partial line until its newline
// arrives: the emitted line sequence is invariant under chunking
// (fuzz-tested). A final "\r" is stripped, so CRLF files tail identically.
type LineTailer struct {
	buf []byte
}

// Feed scans one chunk and invokes emit for every newline-completed line
// (without its terminator). The line slice is only valid during the emit
// call; a non-nil emit error stops the scan and is returned, and the
// unscanned rest of the chunk stays buffered for the next Feed. Lines are
// emitted from the chunk itself: only the buffered bytes completed by the
// chunk's first line, and the chunk's trailing partial line, are copied.
func (t *LineTailer) Feed(chunk []byte, emit func(line []byte) error) error {
	if len(t.buf) > 0 {
		i := bytes.IndexByte(chunk, '\n')
		if i < 0 {
			t.buf = append(t.buf, chunk...)
			return t.scan(t.buf, emit)
		}
		t.buf = append(t.buf, chunk[:i+1]...)
		if err := t.scan(t.buf, emit); err != nil {
			t.buf = append(t.buf, chunk[i+1:]...)
			return err
		}
		chunk = chunk[i+1:]
	}
	return t.scan(chunk, emit)
}

// scan emits every complete line of data and keeps the rest — the partial
// tail, or everything after a line whose emit failed — in the buffer,
// which therefore never grows past the longest line. data may alias the
// buffer.
func (t *LineTailer) scan(data []byte, emit func(line []byte) error) error {
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break
		}
		line := data[:i]
		data = data[i+1:]
		if err := emit(trimCR(line)); err != nil {
			t.buf = append(t.buf[:0], data...)
			return err
		}
	}
	t.buf = append(t.buf[:0], data...)
	return nil
}

// trimCR strips one final "\r", so CRLF lines read like LF ones.
func trimCR(line []byte) []byte {
	if len(line) > 0 && line[len(line)-1] == '\r' {
		return line[:len(line)-1]
	}
	return line
}

// Remainder returns the buffered partial line awaiting its newline —
// consult it at end of stream, where a file commonly lacks a final
// terminator, and hand it to the same per-line processing.
func (t *LineTailer) Remainder() []byte { return t.buf }

// jsonScorePair decodes the JSONL form of one score pair. Pointer fields
// distinguish "absent" from an explicit 0; floats are decode-only here, so
// no NaN ever needs marshalling.
type jsonScorePair struct {
	A *float64 `json:"a"`
	B *float64 `json:"b"`
}

// ParseScore parses one score field, and returns exactly what
// strconv.ParseFloat(string(field), 64) returns: the same bits and the
// same error (fuzz-tested). Both `varbench compare` and ParseScorePair
// parse their scores with it.
//
// A plain decimal [+-]?digits[.digits] of at most 15 digits takes a fast
// path: one scan, the same one watch and compare frame their plain lines
// with. Its digits m are below 2⁵³ and 10^f, f the number of fraction
// digits, is exact too, so one IEEE division rounds m/10^f correctly —
// which is strconv's own first step (Clinger's fast path). Every other
// field (an exponent, more digits, Inf, NaN, hex, underscores, spaces,
// junk) goes to strconv unchanged.
func ParseScore(field []byte) (float64, error) {
	if v, n, ok := ingest.Scan(field); ok && n == len(field) {
		return v, nil
	}
	return strconv.ParseFloat(string(field), 64)
}

// ParseScorePair parses one line of a paired score stream. Two syntaxes
// are accepted, matching `varbench watch`:
//
//	CSV:   a,b        (further columns ignored; optional spaces)
//	JSONL: {"a": 0.91, "b": 0.87}
//
// Blank lines and '#' comments are skipped (ok=false, err=nil), as is a
// digit-free CSV header line such as "a,b" — the same rule `varbench
// compare` applies to score files. A malformed or non-finite line returns
// an error for the caller to count or surface; it never contributes pairs,
// so replaying a file skips it deterministically.
func ParseScorePair(line []byte) (a, b float64, ok bool, err error) {
	s := bytes.TrimSpace(line)
	if len(s) == 0 || s[0] == '#' {
		return 0, 0, false, nil
	}
	if s[0] == '{' {
		var p jsonScorePair
		if err := json.Unmarshal(s, &p); err != nil {
			return 0, 0, false, fmt.Errorf("bad JSONL score line %q: %w", s, err)
		}
		if p.A == nil || p.B == nil {
			return 0, 0, false, fmt.Errorf(`JSONL score line %q needs both "a" and "b"`, s)
		}
		a, b = *p.A, *p.B
	} else {
		comma := bytes.IndexByte(s, ',')
		if comma < 0 {
			if !bytes.ContainsAny(s, "0123456789") {
				return 0, 0, false, nil // header or stray label
			}
			return 0, 0, false, fmt.Errorf("score line %q: want a,b", s)
		}
		second := s[comma+1:]
		if end := bytes.IndexByte(second, ','); end >= 0 {
			second = second[:end]
		}
		a, err = ParseScore(bytes.TrimSpace(s[:comma]))
		if err == nil {
			b, err = ParseScore(bytes.TrimSpace(second))
		}
		if err != nil {
			if !bytes.ContainsAny(s, "0123456789") {
				return 0, 0, false, nil // digit-free header line
			}
			return 0, 0, false, fmt.Errorf("score line %q: %w", s, err)
		}
	}
	if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
		return 0, 0, false, fmt.Errorf("score line %q: non-finite score", s)
	}
	return a, b, true, nil
}
