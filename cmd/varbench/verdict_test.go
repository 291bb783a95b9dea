package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"varbench"
)

// readColumn parses a one-score-per-line golden file.
func readColumn(t *testing.T, path string) []float64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, line := range strings.Fields(string(raw)) {
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// TestOneVerdictThroughEveryEntryPoint feeds the golden paired scores (18
// wins, 12 losses) through every paired entry point — Analyze,
// AnalyzeDatasets with one dataset, Experiment.Run, a Stream fed in one
// Extend and in chunks, and the compare and watch commands — at several
// seeds and resample counts. A paired verdict is a function of the
// win/tie/loss counts alone, so each must report the same Comparison, CI
// bits included, and print the exact interval [0.433, 0.767].
func TestOneVerdictThroughEveryEntryPoint(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	pathA, pathB := filepath.Join(dir, "paired-a.csv"), filepath.Join(dir, "paired-b.csv")
	a, b := readColumn(t, pathA), readColumn(t, pathB)
	if len(a) != 30 || len(b) != 30 {
		t.Fatalf("golden scores: %d and %d, want 30 each", len(a), len(b))
	}
	var log bytes.Buffer
	for i := range a {
		fmt.Fprintf(&log, "%v,%v\n", a[i], b[i])
	}
	logPath := filepath.Join(t.TempDir(), "paired.csv")
	if err := os.WriteFile(logPath, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	ref, err := varbench.Analyze(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Comparison
	if got := fmt.Sprintf("CI[%.3f, %.3f]", want.CILo, want.CIHi); got != "CI[0.433, 0.767]" {
		t.Fatalf("Analyze reports %s, want the exact CI[0.433, 0.767]", got)
	}

	for _, seed := range []uint64{1, 2, 7} {
		for _, k := range []int{200, 1000, 5000} {
			opts := []varbench.Option{varbench.WithSeed(seed), varbench.WithBootstrap(k)}
			flags := []string{"-seed", strconv.FormatUint(seed, 10), "-bootstrap", strconv.Itoa(k)}
			check := func(entry string, got varbench.Comparison) {
				t.Helper()
				if got != want {
					t.Errorf("seed %d, K %d, %s:\n got %+v\nwant %+v", seed, k, entry, got, want)
				}
			}

			res, err := varbench.Analyze(a, b, opts...)
			if err != nil {
				t.Fatal(err)
			}
			check("Analyze", res.Comparison)

			res, err = varbench.AnalyzeDatasets([]varbench.DatasetScores{{ScoresA: a, ScoresB: b}}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			check("AnalyzeDatasets", res.Comparison)

			byIndex := func(scores []float64) varbench.TrialFunc {
				return func(tr varbench.Trial) (float64, error) { return scores[tr.Index], nil }
			}
			e := varbench.Experiment{ATrial: byIndex(a), BTrial: byIndex(b), MaxRuns: len(a), EarlyStop: varbench.EarlyStopOff}
			for _, o := range opts {
				o(&e)
			}
			res, err = e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			check("Experiment.Run", res.Comparison)

			for _, chunk := range []int{len(a), 7} {
				s, err := varbench.NewStream(opts...)
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(a); lo += chunk {
					hi := min(lo+chunk, len(a))
					if _, err := s.Extend(a[lo:hi], b[lo:hi]); err != nil {
						t.Fatal(err)
					}
				}
				if res, err = s.Result(); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("Stream in chunks of %d", chunk), res.Comparison)
			}

			for _, cmd := range [][]string{
				{"compare", "-a", pathA, "-b", pathB},
				{"watch", "-file", logPath},
			} {
				var text, js bytes.Buffer
				args := append(cmd[:len(cmd):len(cmd)], flags...)
				if err := run(context.Background(), args, &text); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(text.String(), "CI[0.433, 0.767]") {
					t.Errorf("seed %d, K %d, %s prints:\n%s\nwant CI[0.433, 0.767]", seed, k, cmd[0], text.String())
				}
				if err := run(context.Background(), append(args, "-format", "json"), &js); err != nil {
					t.Fatal(err)
				}
				var out struct {
					Comparison varbench.Comparison `json:"comparison"`
				}
				if err := json.Unmarshal(js.Bytes(), &out); err != nil {
					t.Fatal(err)
				}
				check(cmd[0], out.Comparison)
			}
		}
	}
}
