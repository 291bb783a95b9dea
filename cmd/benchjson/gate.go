package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"text/tabwriter"
)

// A Manifest is the bench gate's checked-in statement of what it measures
// and what must hold (benchgate.json). Every sub-benchmark of a listed
// benchmark has one row in the baseline report, so a renamed or deleted
// benchmark fails the gate instead of silently dropping out of it.
type Manifest struct {
	// Baseline is the checked-in report, relative to the manifest.
	Baseline string `json:"baseline"`
	// Tolerance is the allowed relative growth of every gated metric.
	Tolerance  float64     `json:"tolerance"`
	Benchmarks []Entry     `json:"benchmarks"`
	Assertions []Assertion `json:"assertions"`

	dir     string
	entries map[string]*Entry
}

// An Entry lists one top-level benchmark of one package.
type Entry struct {
	Package   string `json:"package"`
	Benchmark string `json:"benchmark"`
	// NsOp gates ns/op against a previous run's report, when one is given:
	// unlike allocations, time compares only on the same runner class.
	NsOp bool `json:"ns_op,omitempty"`
	// Metrics are gated against the baseline; empty means B/op and
	// allocs/op.
	Metrics []string `json:"metrics,omitempty"`
}

// defaultGatedMetrics are the machine-independent units an entry gates
// unless it names its own; at a 0 baseline, any allocation fails.
var defaultGatedMetrics = []string{"B/op", "allocs/op"}

func (e *Entry) gated() []string {
	if len(e.Metrics) > 0 {
		return e.Metrics
	}
	return defaultGatedMetrics
}

// An Assertion is a check within one run, so it holds on any hardware:
// either ratio(Ratio[0], Ratio[1], Metric) ≥ AtLeast, or Zero's Metric
// == 0. Benchmarks are named "package.Benchmark[/sub]".
type Assertion struct {
	Ratio   []string `json:"ratio,omitempty"`
	AtLeast float64  `json:"at_least,omitempty"`
	Zero    string   `json:"zero,omitempty"`
	Metric  string   `json:"metric"`
}

func (a Assertion) String() string {
	if a.Zero != "" {
		return fmt.Sprintf("%s %s == 0", a.Zero, a.Metric)
	}
	return fmt.Sprintf("ratio(%s, %s, %s) >= %g", a.Ratio[0], a.Ratio[1], a.Metric, a.AtLeast)
}

func (a Assertion) operands() []string {
	if a.Zero != "" {
		return []string{a.Zero}
	}
	return a.Ratio
}

// eval returns the assertion's value on the rows and whether it holds.
func (a Assertion) eval(rows map[string]Benchmark) (float64, bool, error) {
	var v [2]float64
	for i, op := range a.operands() {
		x, ok := rows[op].Metrics[a.Metric]
		if !ok {
			return 0, false, fmt.Errorf("%s: %s reports no %s in the run", a, op, a.Metric)
		}
		v[i] = x
	}
	if a.Zero != "" {
		return v[0], v[0] == 0, nil
	}
	return v[0] / v[1], v[0]/v[1] >= a.AtLeast, nil
}

// rowKey names a benchmark result as the manifest's assertions do.
func rowKey(b Benchmark) string { return b.Package + "." + b.Name }

// entryKey maps a result row to the key of its top-level benchmark.
func entryKey(b Benchmark) string {
	top, _, _ := strings.Cut(b.Name, "/")
	return b.Package + "." + top
}

// loadGate reads the manifest and its baseline and checks that they agree:
// every baseline row belongs to a listed benchmark and holds the entry's
// gated metrics, every entry has rows, and every assertion names rows.
func loadGate(path string) (*Manifest, *Report, error) {
	var m Manifest
	if err := readJSON(path, &m); err != nil {
		return nil, nil, err
	}
	if m.Tolerance <= 0 {
		return nil, nil, fmt.Errorf("%s: tolerance must be positive, got %v", path, m.Tolerance)
	}
	m.dir = filepath.Dir(path)
	m.entries = make(map[string]*Entry, len(m.Benchmarks))
	for i, e := range m.Benchmarks {
		m.entries[e.Package+"."+e.Benchmark] = &m.Benchmarks[i]
	}
	var base Report
	if err := readJSON(filepath.Join(m.dir, m.Baseline), &base); err != nil {
		return nil, nil, err
	}
	covered := make(map[string]bool)
	for _, b := range base.Benchmarks {
		e := m.entries[entryKey(b)]
		if e == nil {
			return nil, nil, fmt.Errorf("baseline row %s has no manifest entry", rowKey(b))
		}
		for _, metric := range e.gated() {
			if _, ok := b.Metrics[metric]; !ok {
				return nil, nil, fmt.Errorf("baseline row %s lacks gated metric %s", rowKey(b), metric)
			}
		}
		covered[entryKey(b)] = true
	}
	for key := range m.entries {
		if !covered[key] {
			return nil, nil, fmt.Errorf("entry %s has no baseline row", key)
		}
	}
	rows := index(&base)
	for _, a := range m.Assertions {
		zero := a.Zero != "" && a.Ratio == nil && a.AtLeast == 0
		ratio := a.Zero == "" && len(a.Ratio) == 2 && a.AtLeast > 0
		if a.Metric == "" || zero == ratio {
			return nil, nil, fmt.Errorf("%s: assertion %+v must be {zero, metric} or {ratio: [a, b], at_least > 0, metric}", path, a)
		}
		for _, op := range a.operands() {
			if _, ok := rows[op]; !ok {
				return nil, nil, fmt.Errorf("assertion %s names %s, which is not a baseline row", a, op)
			}
		}
	}
	return &m, &base, nil
}

// runBenchmarks runs every listed benchmark in one go test invocation from
// the manifest's directory, streaming go test's output to log. GOMAXPROCS=1
// makes the run serial and keeps the -N suffix off every name, so rows
// match the baseline's; -benchtime=1s is long enough that µs-scale
// benchmarks do not trip the gate on identical code.
func runBenchmarks(m *Manifest, log io.Writer) (*Report, error) {
	var names, pkgs []string
	for _, e := range m.Benchmarks {
		names = append(names, regexp.QuoteMeta(e.Benchmark))
		if !slices.Contains(pkgs, e.Package) {
			pkgs = append(pkgs, e.Package)
		}
	}
	args := append([]string{"test", "-run", "^$", "-bench", "^(" + strings.Join(names, "|") + ")$",
		"-benchmem", "-benchtime=1s"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = m.dir
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, log)
	cmd.Stderr = log
	fmt.Fprintf(log, "GOMAXPROCS=1 go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test: %w", err)
	}
	return parse(bufio.NewScanner(&out))
}

// gate checks run against the manifest, writing one line per check to w.
// Every baseline row must be in the run and may grow its gated metrics by at
// most the tolerance, and its ns/op too against prev if the entry says so
// and prev is not nil. A listed benchmark's row that the baseline lacks
// fails, every assertion must hold, and unlisted benchmarks are ignored.
func gate(m *Manifest, base, run, prev *Report, w io.Writer) error {
	baseBy, runBy, prevBy := index(base), index(run), index(prev)
	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	if prev == nil {
		fmt.Fprintln(w, "no previous run given: ns/op is not gated")
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	check := func(key, metric, against string, ov, nv float64) {
		status := "ok"
		if regressed(ov, nv, m.Tolerance) {
			status = "REGRESSION"
			fail("%s %s: %.10g -> %.10g (%+.1f%%) against the %s", key, metric, ov, nv, delta(ov, nv), against)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%.10g -> %.10g\t%+.1f%%\t%s\n", key, metric, against, ov, nv, delta(ov, nv), status)
	}
	for _, b := range base.Benchmarks {
		key := rowKey(b)
		n, ok := runBy[key]
		if !ok {
			fail("%s: listed but missing from the run", key)
			continue
		}
		e := m.entries[entryKey(b)]
		for _, metric := range e.gated() {
			if nv, ok := n.Metrics[metric]; ok {
				check(key, metric, "baseline", b.Metrics[metric], nv)
			} else {
				fail("%s: the run reports no %s", key, metric)
			}
		}
		if e.NsOp && prev != nil {
			if p, ok := prevBy[key].Metrics["ns/op"]; ok {
				check(key, "ns/op", "previous run", p, n.Metrics["ns/op"])
			} else {
				fmt.Fprintf(tw, "  %s\tns/op\tprevious run\tnot in it\t\t\n", key)
			}
		}
	}
	tw.Flush()
	for _, b := range run.Benchmarks {
		if _, ok := baseBy[rowKey(b)]; !ok && m.entries[entryKey(b)] != nil {
			fail("%s: ran but has no baseline row", rowKey(b))
		}
	}
	for _, a := range m.Assertions {
		got, ok, err := a.eval(runBy)
		switch {
		case err != nil:
			fail("%v", err)
		case !ok:
			fail("%s does not hold: got %.3g", a, got)
		default:
			fmt.Fprintf(w, "  %s: %.3g ok\n", a, got)
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(w, "bench gate failed (tolerance %.0f%%):\n", m.Tolerance*100)
		for _, f := range failures {
			fmt.Fprintf(w, "  %s\n", f)
		}
		return fmt.Errorf("%d bench gate check(s) failed", len(failures))
	}
	fmt.Fprintf(w, "bench gate passed: %d rows, %d assertions, tolerance %.0f%%\n",
		len(base.Benchmarks), len(m.Assertions), m.Tolerance*100)
	return nil
}

// regressed reports whether nv exceeds ov by more than the tolerance. A zero
// baseline (e.g. 0 B/op) regresses on any growth: relative tolerance has no
// meaning there, and allocation-free paths must stay allocation-free.
func regressed(ov, nv, tolerance float64) bool {
	if ov == 0 {
		return nv > 0
	}
	return nv > ov*(1+tolerance)
}

func delta(ov, nv float64) float64 {
	if ov == 0 {
		if nv == 0 {
			return 0
		}
		return 100
	}
	return (nv/ov - 1) * 100
}

// index keys a report's rows by rowKey. Names keep any -GOMAXPROCS suffix,
// since names like "maxruns-64" make stripping it ambiguous.
func index(r *Report) map[string]Benchmark {
	out := make(map[string]Benchmark)
	if r != nil {
		for _, b := range r.Benchmarks {
			out[rowKey(b)] = b
		}
	}
	return out
}

// readJSON decodes the file at path into v, rejecting unknown fields so a
// misspelt manifest key fails instead of silently changing what is gated.
func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
