package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fakeConfig returns a config whose varbench is a shell script running
// body, so a round's programs can exit non-zero or print wrong output.
func fakeConfig(t *testing.T, body string) *config {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("fake programs are shell scripts")
	}
	bin := t.TempDir()
	if err := os.WriteFile(filepath.Join(bin, "varbench"), []byte("#!/bin/sh\n"+body+"\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	return &config{seed: 1, workers: 1, bin: bin, work: t.TempDir(), env: os.Environ()}
}

// A round whose program exits non-zero, or prints an output that fails
// its check, counts every operation it attempted as failed; a correct
// round counts none.
func TestFailuresCountInFailRatio(t *testing.T) {
	verdict := func(n int) string {
		return fmt.Sprintf("echo 'P(A>B)=0.570 CI[0.568, 0.572] γ=0.75 n=%d (recommended ≥29): significant but not meaningful'", n)
	}
	w := findWorkload("score-log")
	for _, tc := range []struct {
		name      string
		body      string
		wantRatio float64
	}{
		{"correct output", verdict(scorePairs), 0},
		{"non-zero exit", verdict(scorePairs) + "\nexit 1", 1},
		{"wrong output", verdict(scorePairs - 1), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum, err := measure(context.Background(), w, fakeConfig(t, tc.body), time.Nanosecond, false)
			if err != nil {
				t.Fatal(err)
			}
			// The warm-up round and one measured round, both checked.
			if want := 2 * 2 * scorePairs; sum.attempted != want || sum.failRatio() != tc.wantRatio {
				t.Fatalf("attempted %d, fail ratio %v; want %d, %v (errors: %v)",
					sum.attempted, sum.failRatio(), want, tc.wantRatio, sum.errors)
			}
			line, err := sum.json(false)
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if res.Correct != (tc.wantRatio == 0) || res.Failed != sum.failed || len(res.Metrics) != len(endToEnd) {
				t.Fatalf("result line %s disagrees with the summary", line)
			}
		})
	}
}

// Rounds of one run process the same inputs: a round whose stdout differs
// from the first passing round's fails.
func TestStdoutMustRepeat(t *testing.T) {
	var s summary
	for _, out := range []string{"a", "a", "b"} {
		s.add(round{ops: 10, procs: []proc{{stdout: []byte(out)}}})
	}
	if s.failed != 10 || len(s.errors) != 1 || !strings.HasPrefix(s.errors[0], "round 2:") {
		t.Fatalf("failed %d, errors %v; want round 2 alone to fail", s.failed, s.errors)
	}
}

// BENCHMARK.json at the root of the tree lists exactly the workloads and
// metrics this command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, command %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", c.what, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", c.what, i, m, d)
			}
		}
	}
}
