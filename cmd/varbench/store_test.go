package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"varbench/store"
)

// dumpGolden holds the 24 trials of `varbench variance -task tiny -k 2
// -realizations 2 -seed 5 -store DIR` as the retired JSONL engine wrote
// them. Sorted by (key, fingerprint), it is what `varbench store dump DIR`
// prints for a fresh store of that run, so it pins cell keys, fingerprints
// and score bits.
var dumpGolden = filepath.Join("testdata", "legacy-store", "trials.jsonl")

// TestVarianceCommandStoreResume: with -store, an interrupted `varbench
// variance` run leaves a trial log a rerun resumes from, and the resumed
// report is byte-identical to a storeless run.
func TestVarianceCommandStoreResume(t *testing.T) {
	dir := t.TempDir()

	var clean bytes.Buffer
	if err := run(context.Background(), varianceArgs("-p", "2"), &clean); err != nil {
		t.Fatal(err)
	}

	// An already-canceled context models SIGINT landing before any trial:
	// the run must fail with the context error (main translates it into
	// the "interrupted" message and exit 130), not render a report.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var interrupted bytes.Buffer
	err := run(ctx, varianceArgs("-p", "2", "-store", dir), &interrupted)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: want context.Canceled, got %v", err)
	}
	if interrupted.Len() != 0 {
		t.Errorf("canceled run must not render a report, got:\n%s", interrupted.String())
	}

	// First real run populates the store; the rerun is served from it.
	// Both must match the storeless report byte for byte.
	var first, second bytes.Buffer
	if err := run(context.Background(), varianceArgs("-p", "2", "-store", dir), &first); err != nil {
		t.Fatal(err)
	}
	if first.String() != clean.String() {
		t.Errorf("-store run differs from storeless run:\n%s\n---\n%s", first.String(), clean.String())
	}
	if err := run(context.Background(), varianceArgs("-p", "2", "-store", dir), &second); err != nil {
		t.Fatal(err)
	}
	if second.String() != clean.String() {
		t.Errorf("cached rerun differs from storeless run:\n%s\n---\n%s", second.String(), clean.String())
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log")); len(segs) == 0 {
		t.Errorf("no store segments in %s", dir)
	}
}

// TestVarianceCommandStoreIsolatesSpecs: changing the structural seed (a
// different synthetic task distribution, same task name) must miss the
// cache — the pipeline identity is part of the spec fingerprint.
func TestVarianceCommandStoreIsolatesSpecs(t *testing.T) {
	dir := t.TempDir()
	var a, b bytes.Buffer
	if err := run(context.Background(), varianceArgs("-p", "1", "-store", dir), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), varianceArgs("-p", "1", "-store", dir, "-structseed", "99"), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Error("different structseed produced identical reports — stale cache served?")
	}
}

// TestCompareCommandStoreReuse: with -store, an unchanged `varbench
// compare` rerun serves the cached analysis with byte-identical output,
// and any input change recomputes.
func TestCompareCommandStoreReuse(t *testing.T) {
	dir := t.TempDir()
	tmp := t.TempDir()
	fa := filepath.Join(tmp, "a.csv")
	fb := filepath.Join(tmp, "b.csv")
	if err := os.WriteFile(fa, []byte("0.91\n0.93\n0.90\n0.92\n0.94\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fb, []byte("0.85\n0.86\n0.84\n0.83\n0.87\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"compare", "-a", fa, "-b", fb, "-store", dir, "-format", "json"}

	var fresh, cached bytes.Buffer
	if err := run(context.Background(), args, &fresh); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, &cached); err != nil {
		t.Fatal(err)
	}
	if fresh.String() != cached.String() {
		t.Errorf("cached compare differs:\n%s\n---\n%s", fresh.String(), cached.String())
	}
	if !strings.Contains(fresh.String(), `"conclusion"`) {
		t.Errorf("missing conclusion in output:\n%s", fresh.String())
	}

	// One cached analysis renders in every format.
	var asText bytes.Buffer
	textArgs := []string{"compare", "-a", fa, "-b", fb, "-store", dir}
	if err := run(context.Background(), textArgs, &asText); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(asText.String(), "P(A>B)") {
		t.Errorf("text render of cached analysis:\n%s", asText.String())
	}

	// A different protocol flag misses the fingerprint and recomputes.
	var other bytes.Buffer
	if err := run(context.Background(), append(args, "-gamma", "0.6"), &other); err != nil {
		t.Fatal(err)
	}
	if other.String() == fresh.String() {
		t.Error("different -gamma served the old cached analysis")
	}
}

// TestStoreDumpCommand: `varbench store dump DIR` prints every cell as a
// legacy line sorted by (key, fingerprint). A fresh store of the -seed 5
// study dumps to the golden, sorted: the line format is byte for byte the
// one the JSONL engine wrote. A directory that holds no segment is refused
// before anything is opened: it stays as it was.
func TestStoreDumpCommand(t *testing.T) {
	dir := t.TempDir()
	study := []string{"variance", "-task", "tiny", "-k", "2", "-realizations", "2", "-seed", "5", "-store", dir}
	if err := run(context.Background(), study, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"store", "dump", dir}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dumpGolden)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	type cell struct{ Key, FP string }
	id := func(line string) cell {
		var c struct {
			Key string `json:"key"`
			FP  string `json:"fp"`
		}
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			t.Fatal(err)
		}
		return cell{c.Key, c.FP}
	}
	sort.Slice(lines, func(i, j int) bool {
		a, b := id(lines[i]), id(lines[j])
		return a.Key < b.Key || a.Key == b.Key && a.FP < b.FP
	})
	if want := strings.Join(lines, "\n") + "\n"; out.String() != want {
		t.Errorf("dump of a fresh store:\n%s\nwant the golden sorted:\n%s", out.String(), want)
	}

	// A directory with no segment, empty or holding only a trials.jsonl
	// from a build before seglog, is not a store.
	empty := t.TempDir()
	legacyOnly := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacyOnly, "trials.jsonl"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		dir  string // when set, the error names it and it is left as it was
	}{
		{args: []string{"store"}},
		{args: []string{"store", "dump"}},
		{args: []string{"store", "list", dir}},
		{args: []string{"store", "dump", filepath.Join(dir, "missing")}},
		{args: []string{"store", "dump", empty}, dir: empty},
		{args: []string{"store", "dump", legacyOnly}, dir: legacyOnly},
	} {
		var before []string
		if tc.dir != "" {
			before = listDir(t, tc.dir)
		}
		out.Reset()
		err := run(context.Background(), tc.args, &out)
		if err == nil {
			t.Errorf("%q: want an error", tc.args)
			continue
		}
		if tc.dir == "" {
			continue
		}
		if !strings.Contains(err.Error(), tc.dir) {
			t.Errorf("%q: error %q does not name the directory", tc.args, err)
		}
		if after := listDir(t, tc.dir); !slices.Equal(after, before) || out.Len() != 0 {
			t.Errorf("%q left %q (was %q) and printed %q", tc.args, after, before, out.String())
		}
	}
}

// TestStoreDumpIsReadOnly: a dump replays the segments without opening
// the store. Six garbage bytes appended to the final segment, a torn tail,
// are skipped, and every file keeps its bytes; and a dump succeeds while
// another process's SegLog holds the directory's lock.
func TestStoreDumpIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	study := []string{"variance", "-task", "tiny", "-k", "2", "-realizations", "2", "-seed", "5", "-store", dir}
	if err := run(context.Background(), study, io.Discard); err != nil {
		t.Fatal(err)
	}
	dump := func() string {
		t.Helper()
		var out bytes.Buffer
		if err := run(context.Background(), []string{"store", "dump", dir}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	want := dump()
	seg := filepath.Join(dir, "seg-00000001.log")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("garbag")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string {
		t.Helper()
		m := make(map[string]string)
		for _, name := range listDir(t, dir) {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			m[name] = string(data)
		}
		return m
	}
	before := files()
	if got := dump(); got != want {
		t.Errorf("dump of the torn store:\n%s\nwant the intact store's:\n%s", got, want)
	}
	if after := files(); !maps.Equal(after, before) {
		t.Errorf("the dump changed the store's files: %d bytes in %s, was %d",
			len(after["seg-00000001.log"]), seg, len(before["seg-00000001.log"]))
	}

	held, err := store.OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	if got := dump(); got != want {
		t.Errorf("dump of a held store:\n%s\nwant:\n%s", got, want)
	}
}

// listDir returns the names of the entries of dir.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}
