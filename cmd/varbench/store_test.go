package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// legacyFixture is a store the retired JSONL engine wrote: the 24 trials of
// `varbench variance -task tiny -k 2 -realizations 2 -seed 5 -store DIR`.
var legacyFixture = filepath.Join("testdata", "legacy-store", "trials.jsonl")

// copyLegacyStore returns a fresh directory holding the legacy fixture.
func copyLegacyStore(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "trials.jsonl"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// captureStderr runs fn with os.Stderr redirected and returns what fn wrote
// there — the CLI's cache notes go to stderr to keep stdout byte-comparable.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = orig }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

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

// TestVarianceCommandResumesLegacyStore: a store the retired JSONL engine
// wrote resumes through both a bare directory and a seglog: DSN. Raising
// -k from 2 to 3 reuses all 24 recorded trials, computes only the 12 new
// ones and renders byte-identically to a storeless run. The import retires
// the log, and a rerun never reads it again.
func TestVarianceCommandResumesLegacyStore(t *testing.T) {
	var clean bytes.Buffer
	if err := run(context.Background(), varianceArgs(), &clean); err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"", "seglog:"} {
		t.Run("dsn="+scheme+"DIR", func(t *testing.T) {
			dir := copyLegacyStore(t)
			var out bytes.Buffer
			var err error
			stderr := captureStderr(t, func() {
				err = run(context.Background(), varianceArgs("-store", scheme+dir), &out)
			})
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != clean.String() {
				t.Errorf("legacy-resumed report differs from storeless run:\n%s\n---\n%s", out.String(), clean.String())
			}
			if !strings.Contains(stderr, "24 trial(s) reused, 12 computed") {
				t.Errorf("stderr = %q, want 24 reused and 12 computed", stderr)
			}
			if _, err := os.Stat(filepath.Join(dir, "trials.jsonl")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("legacy log not retired: %v", err)
			}

			// Garble the retired log: a rerun serves every trial from the
			// segments and never notices.
			if err := os.WriteFile(filepath.Join(dir, "trials.jsonl.imported"), []byte("garbage\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			out.Reset()
			stderr = captureStderr(t, func() {
				err = run(context.Background(), varianceArgs("-store", scheme+dir), &out)
			})
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != clean.String() {
				t.Errorf("rerun differs from storeless run")
			}
			if !strings.Contains(stderr, "36 trial(s) reused, 0 computed") {
				t.Errorf("rerun stderr = %q, want 36 reused and 0 computed", stderr)
			}
		})
	}
}

// TestStoreDumpCommand: `varbench store dump DIR` prints every cell as a
// legacy line sorted by (key, fingerprint). The dump of the imported
// legacy fixture is the fixture itself, sorted: the line format is
// byte-for-byte the one the JSONL engine wrote.
func TestStoreDumpCommand(t *testing.T) {
	dir := copyLegacyStore(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"store", "dump", dir}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(legacyFixture)
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
		t.Errorf("dump of the imported fixture:\n%s\nwant the fixture sorted:\n%s", out.String(), want)
	}

	for _, args := range [][]string{
		{"store"},
		{"store", "dump"},
		{"store", "list", dir},
		{"store", "dump", filepath.Join(dir, "missing")},
	} {
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("%q: want an error", args)
		}
	}
}
