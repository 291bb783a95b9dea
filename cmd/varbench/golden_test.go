//go:build amd64

// The golden bytes below were recorded on amd64, where they hold at every
// GOAMD64 level: the amd64 compiler fuses a multiply-add only when the code
// calls math.FMA. arm64 lets the compiler contract x*y+z into a fused
// multiply-add, so the full-precision floats in these reports (the adjusted
// γ, the CI endpoints) may legitimately differ in their last bits there.

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"varbench"
	"varbench/internal/compare"
	"varbench/internal/stats"
	"varbench/internal/xrand"
)

// goldenDir holds the seeded inputs of TestGoldenReports and the exact bytes
// each case must produce. The expected files were written once from a known
// good build; a refactor of the analysis layer that is meant to keep every
// report unchanged must leave them passing untouched.
var goldenDir = filepath.Join("testdata", "golden")

// checkGolden fails when got differs from the golden file name.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// goldenTrial is a synthetic pipeline: a per-trial shared base (the data
// split) plus a small per-algorithm noise term (the initialization), so A
// and B pair on the split exactly as real pipelines do.
func goldenTrial(mean, noiseSalt float64) varbench.TrialFunc {
	return func(tr varbench.Trial) (float64, error) {
		base := xrand.New(tr.SourceSeed(varbench.VarDataSplit)).NormFloat64()
		noise := xrand.New(tr.SourceSeed(varbench.VarInit) ^ uint64(noiseSalt*1e6)).NormFloat64()
		return mean + 0.02*base + 0.01*noise, nil
	}
}

// readPairs parses the a,b lines of a watch score file.
func readPairs(t *testing.T, name string) []stats.Pair {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	var pairs []stats.Pair
	for _, line := range strings.Split(string(data), "\n") {
		a, b, ok, err := varbench.ParseScorePair([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			pairs = append(pairs, stats.Pair{A: a, B: b})
		}
	}
	return pairs
}

// formatResult prints every field of a test outcome at full precision.
func formatResult(r compare.Result) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("pab=%s ci=[%s, %s] level=%s gamma=%s decision=%s\n",
		g(r.PAB), g(r.CI.Lo), g(r.CI.Hi), g(r.CI.Level), g(r.Gamma), r.Decision)
}

// TestGoldenReports pins the exact output of the analysis surfaces:
// varbench compare (paired, unpaired, four datasets, one named dataset),
// varbench watch, a two-dataset Experiment.Run report, and the running
// analysis state fed in two halves.
func TestGoldenReports(t *testing.T) {
	in := func(name string) string { return filepath.Join(goldenDir, name) }
	cli := []struct {
		golden string
		args   []string
	}{
		{"compare-paired.txt", []string{"compare", "-a", in("paired-a.csv"), "-b", in("paired-b.csv"), "-seed", "7"}},
		{"compare-paired.json", []string{"compare", "-a", in("paired-a.csv"), "-b", in("paired-b.csv"), "-seed", "7", "-format", "json"}},
		{"compare-unpaired.txt", []string{"compare", "-a", in("unpaired-a.csv"), "-b", in("unpaired-b.csv"), "-unpaired", "-gamma", "0.6"}},
		{"compare-unpaired.json", []string{"compare", "-a", in("unpaired-a.csv"), "-b", in("unpaired-b.csv"), "-unpaired", "-gamma", "0.6", "-format", "json"}},
		{"compare-multi.csv", []string{"compare", "-a", in("multi-a.csv"), "-b", in("multi-b.csv"), "-seed", "3", "-format", "csv"}},
		{"compare-multi.txt", []string{"compare", "-a", in("multi-a.csv"), "-b", in("multi-b.csv"), "-seed", "3"}},
		{"compare-named.txt", []string{"compare", "-a", in("named-a.csv"), "-b", in("named-b.csv"), "-bootstrap", "500"}},
		{"watch.json", []string{"watch", "-file", in("watch.csv"), "-seed", "5", "-format", "json"}},
	}
	for _, c := range cli {
		t.Run(c.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), c.args, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, c.golden, out.Bytes())
		})
	}

	t.Run("experiment-run.txt", func(t *testing.T) {
		res, err := varbench.Experiment{
			Name: "golden",
			Seed: 11,
			Datasets: []varbench.Dataset{
				{Name: "clear", ATrial: goldenTrial(0.86, 1), BTrial: goldenTrial(0.83, 2)},
				{Name: "close", ATrial: goldenTrial(0.801, 3), BTrial: goldenTrial(0.80, 4)},
			},
			Parallelism: 2,
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "experiment-run.txt", []byte(res.String()))
	})

	t.Run("analysis-state", func(t *testing.T) {
		pairs := readPairs(t, "watch.csv")
		half := len(pairs) / 2
		crit := compare.PAB{Gamma: 0.7}

		// A state fed the first half and then the second evaluates
		// bit-identically to a fresh state fed every pair and to the
		// one-shot Evaluate; the golden pins that result at full precision.
		resumed, err := crit.NewAnalysis()
		if err != nil {
			t.Fatal(err)
		}
		resumed.Extend(pairs[:half])
		if resumed.N() != half {
			t.Fatalf("half-fed state holds %d pairs, want %d", resumed.N(), half)
		}
		resumed.Extend(pairs[half:])
		fresh, err := crit.NewAnalysis()
		if err != nil {
			t.Fatal(err)
		}
		fresh.Extend(pairs)
		got, err := resumed.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		oneShot, err := crit.Evaluate(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if formatResult(got) != formatResult(want) || formatResult(oneShot) != formatResult(want) {
			t.Errorf("resumed  %sfresh    %sone-shot %s", formatResult(got), formatResult(want), formatResult(oneShot))
		}
		checkGolden(t, "analysis-full.txt", []byte(formatResult(want)))
	})
}
