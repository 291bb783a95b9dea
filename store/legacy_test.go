package store

// Tests for the legacy JSONL import and Dump: a directory the retired
// JSONL engine wrote must open to exactly the cells that engine served,
// once, and a dump must be an importable legacy log.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// writeLegacy writes content as dir/trials.jsonl.
func writeLegacy(t *testing.T, dir, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, legacyLogName), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// legacyScore formats one score line exactly as the JSONL engine wrote it.
func legacyScore(t *testing.T, key, fp string, v float64) string {
	t.Helper()
	line, err := json.Marshal(record{Key: key, Fingerprint: fp, Score: strconv.FormatFloat(v, 'g', -1, 64)})
	if err != nil {
		t.Fatal(err)
	}
	return string(line) + "\n"
}

// openImported opens dir and checks that the import retired the legacy log.
func openImported(t *testing.T, dir string) *SegLog {
	t.Helper()
	s, err := OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, legacyLogName)); !errors.Is(err, fs.ErrNotExist) {
		s.Close()
		t.Fatalf("legacy log not retired by the import: %v", err)
	}
	return s
}

func dump(t *testing.T, s *SegLog) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestPutGetRoundTrip: a cell a legacy log recorded is served after the
// import through the same Get and Stats as a native cell, and the imported
// store takes new Puts.
func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := TrialKey(7, "cifar", 3, "A")
	next := TrialKey(7, "cifar", 4, "A")
	fp := Fingerprint("spec/v1", "varied=weights-init")
	writeLegacy(t, dir, legacyScore(t, key, fp, 0.8125))
	s := openImported(t, dir)
	defer s.Close()

	if v, ok := s.Get(key, fp); !ok || v != 0.8125 {
		t.Fatalf("imported Get = %v, %v; want 0.8125, true", v, ok)
	}
	if _, ok := s.Get(next, fp); ok {
		t.Fatal("a cell the legacy log never held was served")
	}
	if hits, misses := s.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses; want 1, 1", hits, misses)
	}
	if err := s.Put(next, fp, 0.5); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(next, fp); !ok || v != 0.5 {
		t.Fatalf("post-import Get = %v, %v; want 0.5, true", v, ok)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

// TestFingerprintRejectsStaleCache: a legacy log holds the same key under
// every spec that ever ran it. Each fingerprint imports as its own cell,
// and one spec's record is never served to another.
func TestFingerprintRejectsStaleCache(t *testing.T) {
	dir := t.TempDir()
	key := TrialKey(1, "", 0, "A")
	writeLegacy(t, dir, legacyScore(t, key, "fp-old", 1)+legacyScore(t, key, "fp-new", 2))
	s := openImported(t, dir)
	defer s.Close()
	if v, ok := s.Get(key, "fp-old"); !ok || v != 1 {
		t.Errorf("old cell lost: %v, %v", v, ok)
	}
	if v, ok := s.Get(key, "fp-new"); !ok || v != 2 {
		t.Errorf("new cell lost: %v, %v", v, ok)
	}
	if _, ok := s.Get(key, "fp-other"); ok {
		t.Error("a record was served under a fingerprint that never wrote it")
	}
}

// TestReopenPersistence: imported scores are bit-exact — including values
// JSON cannot represent as numbers and floats needing all 17 digits — and
// stay so across a reopen that reads the segments, not the legacy log. A
// cell the log re-recorded imports its last value.
func TestReopenPersistence(t *testing.T) {
	dir := t.TempDir()
	scores := map[string]float64{
		"exact":  0.1 + 0.2, // 0.30000000000000004
		"tiny":   5e-324,
		"big":    1.7976931348623157e308,
		"neg":    math.Copysign(0, -1),
		"nan":    math.NaN(),
		"posinf": math.Inf(1),
		"neginf": math.Inf(-1),
	}
	log := legacyScore(t, "exact", "fp", 7) // superseded below
	for k, v := range scores {
		log += legacyScore(t, k, "fp", v)
	}
	writeLegacy(t, dir, log)
	s := openImported(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(scores) {
		t.Fatalf("Len after reopen = %d, want %d", s2.Len(), len(scores))
	}
	for k, want := range scores {
		got, ok := s2.Get(k, "fp")
		if !ok {
			t.Errorf("%s missing after reopen", k)
			continue
		}
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Errorf("%s = %v, want NaN", k, got)
			}
		} else if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %x, want %x (not bit-identical)", k, got, want)
		}
	}
}

// TestTornFinalLineSkipped: a process killed mid-append leaves a truncated
// last line; the import keeps every complete record and drops only the
// torn tail, so an interrupted pre-upgrade run stays resumable.
func TestTornFinalLineSkipped(t *testing.T) {
	dir := t.TempDir()
	var log string
	for i := 0; i < 3; i++ {
		log += legacyScore(t, TrialKey(1, "", i, "A"), "fp", float64(i))
	}
	writeLegacy(t, dir, log+`{"key":"trial/seed=1/dataset=/run=3/A","fp":"fp","sco`)

	s := openImported(t, dir)
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3 (torn line dropped)", s.Len())
	}
	if err := s.Put(TrialKey(1, "", 3, "A"), "fp", 3); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get(TrialKey(1, "", 2, "A"), "fp"); !ok || v != 2 {
		t.Errorf("record before torn tail lost: %v %v", v, ok)
	}
	if v, ok := s2.Get(TrialKey(1, "", 3, "A"), "fp"); !ok || v != 3 {
		t.Errorf("record put after the import lost: %v %v", v, ok)
	}
}

// TestUnterminatedButCompleteTailKept: a kill can land after the record's
// JSON bytes but before its newline; the record is complete and imports.
func TestUnterminatedButCompleteTailKept(t *testing.T) {
	dir := t.TempDir()
	writeLegacy(t, dir, `{"key":"a","fp":"f","score":"1"}`+"\n"+
		`{"key":"b","fp":"f","score":"2"}`) // no trailing newline
	s := openImported(t, dir)
	defer s.Close()
	if v, ok := s.Get("b", "f"); !ok || v != 2 {
		t.Fatalf("unterminated complete record lost: %v %v", v, ok)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

// TestCorruptMiddleLineErrors: garbage anywhere but the tail is real
// corruption. It is refused with its file:line before anything is
// imported, and the legacy log stays in place for the operator.
func TestCorruptMiddleLineErrors(t *testing.T) {
	dir := t.TempDir()
	good := `{"key":"a","fp":"f","score":"1"}` + "\n"
	writeLegacy(t, dir, good+"garbage not json\n"+`{"key":"b","fp":"f","score":"2"}`+"\n")
	_, err := OpenSegLog(dir)
	if err == nil || !strings.Contains(err.Error(), "corrupt") ||
		!strings.Contains(err.Error(), legacyLogName+":2:") {
		t.Fatalf("want a corrupt-record error naming %s:2, got %v", legacyLogName, err)
	}
	// A bad score is corruption too.
	writeLegacy(t, dir, good+`{"key":"b","fp":"f","score":"x"}`+"\n")
	if _, err := OpenSegLog(dir); err == nil || !strings.Contains(err.Error(), "bad score") {
		t.Fatalf("want a bad-score error, got %v", err)
	}
	// Nothing was imported by the refused opens: once the log is mended,
	// it imports in full and the store holds exactly its cells.
	writeLegacy(t, dir, good)
	s := openImported(t, dir)
	defer s.Close()
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

// TestConcurrentPutGet: an imported store serves its legacy cells to
// concurrent readers while concurrent writers add new ones, and all of
// them survive a reopen.
func TestConcurrentPutGet(t *testing.T) {
	const n, workers = 200, 8
	dir := t.TempDir()
	var log string
	for i := 0; i < n/2; i++ {
		log += legacyScore(t, TrialKey(1, "ds", i, "A"), "fp", float64(i))
	}
	writeLegacy(t, dir, log)
	s := openImported(t, dir)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				key := TrialKey(1, "ds", i, "A")
				if i >= n/2 {
					if err := s.Put(key, "fp", float64(i)); err != nil {
						t.Error(err)
						return
					}
				}
				if v, ok := s.Get(key, "fp"); !ok || v != float64(i) {
					t.Errorf("Get(%d) = %v, %v", i, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()

	s2, err := OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Errorf("Len after reopen = %d, want %d", s2.Len(), n)
	}
}

// TestJSONPayload: payload records — cached analysis snapshots — import
// as payload cells: GetJSON decodes them (a NaN the engine wrote as null
// included), and they stay invisible to Get.
func TestJSONPayload(t *testing.T) {
	dir := t.TempDir()
	writeLegacy(t, dir,
		`{"key":"k","fp":"fp","value":{"name":"analysis","p":0.97,"xs":[1,2]}}`+"\n"+
			`{"key":"k2","fp":"fp","value":{"name":"","p":null,"xs":null}}`+"\n"+
			`{"key":"score","fp":"fp","score":"1"}`+"\n")
	s := openImported(t, dir)
	defer s.Close()
	type payload struct {
		Name string    `json:"name"`
		P    float64   `json:"p"`
		Xs   []float64 `json:"xs"`
	}
	var out payload
	if ok, err := s.GetJSON("k", "fp", &out); err != nil || !ok {
		t.Fatalf("GetJSON = %v, %v", ok, err)
	}
	if out.Name != "analysis" || out.P != 0.97 || len(out.Xs) != 2 {
		t.Errorf("payload import: %+v", out)
	}
	var nanOut payload
	if ok, err := s.GetJSON("k2", "fp", &nanOut); err != nil || !ok || nanOut.P != 0 {
		t.Errorf("null payload = %+v, %v, %v", nanOut, ok, err)
	}
	if _, ok := s.Get("k", "fp"); ok {
		t.Error("Get must not serve a JSON payload as a score")
	}
	if ok, _ := s.GetJSON("score", "fp", &out); ok {
		t.Error("GetJSON must not serve a score as a payload")
	}
}

// TestOpenExcludesSecondOpener: the directory lock covers the import. While
// the importing store is open a second open fails fast, and once it closes
// the reopen serves the imported cells from the segments.
func TestOpenExcludesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	writeLegacy(t, dir, legacyScore(t, "a", "f", 1))
	s1 := openImported(t, dir)
	if _, err := OpenSegLog(dir); err == nil || !strings.Contains(err.Error(), "locked") {
		s1.Close()
		t.Fatalf("second open during an import's lifetime: want locked error, got %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegLog(dir)
	if err != nil {
		t.Fatalf("open after Close must succeed: %v", err)
	}
	defer s2.Close()
	if v, ok := s2.Get("a", "f"); !ok || v != 1 {
		t.Errorf("imported cell lost: %v, %v", v, ok)
	}
}

// TestLegacyImportRunsOnce: the import is durable before it retires the
// log as trials.jsonl.imported, and a reopen never reads the log again. A
// crash between the Flush and the rename leaves the log in place, and the
// repeated import is harmless: it replays the same values.
func TestLegacyImportRunsOnce(t *testing.T) {
	dir := t.TempDir()
	log := legacyScore(t, "a", "f", 1) + legacyScore(t, "b", "f", 2)
	writeLegacy(t, dir, log)
	// An hour-long coalescing window: only the import's own Flush can have
	// put the records in the segment by the time the open returns.
	cfg := defaultSegCfg
	cfg.flushInterval = time.Hour
	s, err := openSegLog(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	probe := &SegLog{idx: make(index)}
	if _, err := probe.replaySegment("probe", data); err != nil || probe.idx.count("") != 2 {
		t.Fatalf("segment holds %d cells (%v) when the import returns, want 2", probe.idx.count(""), err)
	}
	want := dump(t, s)
	s.Close()
	retired := filepath.Join(dir, legacyLogName+".imported")
	if got, err := os.ReadFile(retired); err != nil || string(got) != log {
		t.Fatalf("retired log = %q, %v; want the original bytes", got, err)
	}

	// A rewritten retired log is never consulted again.
	if err := os.WriteFile(retired, []byte(legacyScore(t, "a", "f", 99)), 0o644); err != nil {
		t.Fatal(err)
	}
	s = openImported(t, dir)
	if got := dump(t, s); got != want {
		t.Errorf("reopen read the retired log:\n%s\nwant:\n%s", got, want)
	}
	s.Close()

	// Crash before the rename: the same log is back in place.
	writeLegacy(t, dir, log)
	s = openImported(t, dir)
	defer s.Close()
	if got := dump(t, s); got != want {
		t.Errorf("repeated import changed the store:\n%s\nwant:\n%s", got, want)
	}
}

// TestDumpImportRoundTrip: a dump prints every cell as a legacy line in
// (key, fingerprint) order, and importing it into a fresh directory gives
// a store whose dump is byte-identical.
func TestDumpImportRoundTrip(t *testing.T) {
	s, err := OpenSegLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{0.1 + 0.2, math.NaN(), math.Inf(-1), math.Copysign(0, -1), 5e-324} {
		if err := s.Put(TrialKey(3, "ds", i, "B"), "fp2", v); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(TrialKey(3, "ds", i, "B"), "fp1", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutJSON("analysis/seed=3/scope=ds", "fp", map[string]any{"n": 5, "p": math.NaN(), "s": "<&>"}); err != nil {
		t.Fatal(err)
	}
	first := dump(t, s)
	s.Close()

	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("dump has %d lines, want 11:\n%s", len(lines), first)
	}
	if !strings.HasPrefix(lines[0], `{"key":"analysis/`) ||
		!strings.Contains(lines[1], `"fp":"fp1"`) || !strings.Contains(lines[2], `"fp":"fp2"`) {
		t.Errorf("dump not sorted by (key, fingerprint):\n%s", first)
	}

	fresh := t.TempDir()
	writeLegacy(t, fresh, first)
	imported := openImported(t, fresh)
	defer imported.Close()
	if second := dump(t, imported); second != first {
		t.Errorf("dump → import → dump differs:\n%s\nwant:\n%s", second, first)
	}
}
