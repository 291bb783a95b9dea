package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testManifest lists four benchmarks: two that gate ns/op, one with a
// sub-benchmark pair carrying a ratio assertion, and one that gates a
// custom metric instead of B/op and allocs/op.
const testManifest = `{
  "baseline": "base.json",
  "tolerance": 0.2,
  "benchmarks": [
    {"package": "varbench/internal/stats", "benchmark": "BenchmarkPairedBootstrapK1000", "ns_op": true},
    {"package": "varbench", "benchmark": "BenchmarkRetryNoFault"},
    {"package": "varbench/store", "benchmark": "BenchmarkStorePut", "ns_op": true},
    {"package": "varbench/internal/lint", "benchmark": "BenchmarkLintRepo", "metrics": ["B/line"]}
  ],
  "assertions": [
    {"ratio": ["varbench/store.BenchmarkStorePut/flush", "varbench/store.BenchmarkStorePut/coalesced"], "metric": "ns/op", "at_least": 5},
    {"zero": "varbench.BenchmarkRetryNoFault", "metric": "allocs/op"}
  ]
}`

func row(pkg, name string, metrics map[string]float64) Benchmark {
	return Benchmark{Package: pkg, Name: name, Iterations: 100, Metrics: metrics}
}

// baselineReport is testManifest's baseline; a run equal to it passes.
func baselineReport() Report {
	return Report{Benchmarks: []Benchmark{
		row("varbench/internal/stats", "BenchmarkPairedBootstrapK1000",
			map[string]float64{"ns/op": 100000, "B/op": 4096, "allocs/op": 12}),
		row("varbench", "BenchmarkRetryNoFault",
			map[string]float64{"ns/op": 15, "B/op": 0, "allocs/op": 0}),
		row("varbench/store", "BenchmarkStorePut/flush",
			map[string]float64{"ns/op": 150000, "B/op": 761, "allocs/op": 8}),
		row("varbench/store", "BenchmarkStorePut/coalesced",
			map[string]float64{"ns/op": 2000, "B/op": 902, "allocs/op": 1}),
		row("varbench/internal/lint", "BenchmarkLintRepo",
			map[string]float64{"ns/op": 4e8, "B/line": 5000}),
	}}
}

// find returns the row of rep named name, for doctoring.
func find(t *testing.T, rep Report, name string) Benchmark {
	t.Helper()
	for _, b := range rep.Benchmarks {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no row %s", name)
	return Benchmark{}
}

func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeGate writes a manifest and the baseline it names into a temp dir.
func writeGate(t *testing.T, manifest string, base Report) string {
	t.Helper()
	dir := t.TempDir()
	writeJSON(t, dir, "base.json", base)
	path := filepath.Join(dir, "benchgate.json")
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runGate gates run (and prev, unless nil) against testManifest.
func runGate(t *testing.T, run Report, prev *Report) (string, error) {
	t.Helper()
	m, base, err := loadGate(writeGate(t, testManifest, baselineReport()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = gate(m, base, &run, prev, &buf)
	return buf.String(), err
}

// TestGate drives the gate with doctored copies of the baseline. Every
// failing case must name the row that failed.
func TestGate(t *testing.T) {
	base := baselineReport()
	cases := []struct {
		name   string
		doctor func(run, prev *Report)
		noPrev bool
		fail   string // the failure line's prefix; empty means the gate passes
	}{
		{name: "unchanged"},
		{name: "missing benchmark",
			doctor: func(run, _ *Report) { run.Benchmarks = run.Benchmarks[1:] },
			fail:   "varbench/internal/stats.BenchmarkPairedBootstrapK1000: listed but missing"},
		{name: "ratio below bound",
			doctor: func(run, _ *Report) { find(t, *run, "BenchmarkStorePut/coalesced").Metrics["ns/op"] = 40000 },
			fail:   "ratio(varbench/store.BenchmarkStorePut/flush, varbench/store.BenchmarkStorePut/coalesced, ns/op) >= 5 does not hold"},
		{name: "zero assertion violated",
			doctor: func(run, _ *Report) { find(t, *run, "BenchmarkRetryNoFault").Metrics["allocs/op"] = 1 },
			fail:   "varbench.BenchmarkRetryNoFault allocs/op == 0 does not hold"},
		{name: "bytes 25% above the baseline",
			doctor: func(run, _ *Report) { find(t, *run, "BenchmarkPairedBootstrapK1000").Metrics["B/op"] = 5120 },
			fail:   "varbench/internal/stats.BenchmarkPairedBootstrapK1000 B/op: 4096 -> 5120 (+25.0%) against the baseline"},
		{name: "custom gated metric 25% above the baseline",
			doctor: func(run, _ *Report) { find(t, *run, "BenchmarkLintRepo").Metrics["B/line"] = 6250 },
			fail:   "varbench/internal/lint.BenchmarkLintRepo B/line: 5000 -> 6250 (+25.0%) against the baseline"},
		{name: "time 25% above the previous run",
			doctor: func(run, _ *Report) { find(t, *run, "BenchmarkStorePut/flush").Metrics["ns/op"] = 187500 },
			fail:   "varbench/store.BenchmarkStorePut/flush ns/op: 150000 -> 187500 (+25.0%) against the previous run"},
		{name: "new sub-benchmark without a baseline row",
			doctor: func(run, _ *Report) {
				run.Benchmarks = append(run.Benchmarks, row("varbench/store", "BenchmarkStorePut/parallel",
					map[string]float64{"ns/op": 1, "B/op": 1, "allocs/op": 1}))
			},
			fail: "varbench/store.BenchmarkStorePut/parallel: ran but has no baseline row"},
		{name: "time 25% higher with no previous run", noPrev: true,
			doctor: func(run, _ *Report) { find(t, *run, "BenchmarkStorePut/flush").Metrics["ns/op"] = 187500 }},
		{name: "new entry that the previous run lacks",
			doctor: func(run, prev *Report) {
				prev.Benchmarks = prev.Benchmarks[1:]
				find(t, *run, "BenchmarkPairedBootstrapK1000").Metrics["ns/op"] = 300000
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run, prev := clone(t, base), clone(t, base)
			if c.doctor != nil {
				c.doctor(&run, &prev)
			}
			prevp := &prev
			if c.noPrev {
				prevp = nil
			}
			out, err := runGate(t, run, prevp)
			if c.fail == "" {
				if err != nil {
					t.Fatalf("want pass, got %v\n%s", err, out)
				}
				return
			}
			if err == nil {
				t.Fatalf("want failure %q, gate passed:\n%s", c.fail, out)
			}
			if !strings.Contains(out, "\n  "+c.fail) {
				t.Errorf("failure does not name the row, want %q:\n%s", c.fail, out)
			}
		})
	}
}

// clone deep-copies a report so doctoring one copy leaves the others alone.
func clone(t *testing.T, r Report) Report {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out Report
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompareNoRegression(t *testing.T) {
	// 10% drift on every gated metric stays inside the 20% tolerance.
	run := clone(t, baselineReport())
	for _, b := range run.Benchmarks {
		for k, v := range b.Metrics {
			b.Metrics[k] = v * 1.1
		}
	}
	base := baselineReport()
	out, err := runGate(t, run, &base)
	if err != nil {
		t.Fatalf("10%% drift should pass the 20%% gate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "bench gate passed: 5 rows, 2 assertions, tolerance 20%") {
		t.Errorf("missing pass summary:\n%s", out)
	}
}

// TestCompareInjectedRegression drives the command line: a doctored report
// with a >20% ns/op regression against -prev fails, and the same report
// passes without -prev.
func TestCompareInjectedRegression(t *testing.T) {
	manifest := writeGate(t, testManifest, baselineReport())
	dir := filepath.Dir(manifest)
	prev := writeJSON(t, dir, "prev.json", baselineReport())
	doctored := clone(t, baselineReport())
	find(t, doctored, "BenchmarkPairedBootstrapK1000").Metrics["ns/op"] = 125000
	run := writeJSON(t, dir, "run.json", doctored)
	if err := runCLI(t, "-gate", manifest, "-prev", prev, run); err == nil ||
		!strings.Contains(err.Error(), "1 bench gate check(s) failed") {
		t.Fatalf("25%% ns/op regression must fail the gate, got %v", err)
	}
	if err := runCLI(t, "-gate", manifest, run); err != nil {
		t.Fatalf("without -prev ns/op is not gated: %v", err)
	}
}

// runCLI runs the command with stderr silenced.
func runCLI(t *testing.T, args ...string) error {
	t.Helper()
	stderr := os.Stderr
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	os.Stderr = devnull
	defer func() { os.Stderr = stderr }()
	return run(args)
}

// TestCompareBOpRegression: B/op is gated against the checked-in baseline
// even when a previous run is given, so it cannot ratchet up by just under
// the tolerance per run.
func TestCompareBOpRegression(t *testing.T) {
	prev := clone(t, baselineReport())
	find(t, prev, "BenchmarkPairedBootstrapK1000").Metrics["B/op"] = 4096 * 1.19
	run := clone(t, prev)
	find(t, run, "BenchmarkPairedBootstrapK1000").Metrics["B/op"] = 4096 * 1.19 * 1.19
	out, err := runGate(t, run, &prev)
	if err == nil || !strings.Contains(out, "BenchmarkPairedBootstrapK1000 B/op: 4096 -> ") {
		t.Fatalf("B/op 42%% above the baseline must fail whatever the previous run held: %v\n%s", err, out)
	}
}

func TestCompareZeroBaselineAllocs(t *testing.T) {
	run := clone(t, baselineReport())
	find(t, run, "BenchmarkRetryNoFault").Metrics["B/op"] = 16
	if out, err := runGate(t, run, nil); err == nil ||
		!strings.Contains(out, "BenchmarkRetryNoFault B/op: 0 -> 16") {
		t.Fatalf("allocation-free baseline growing to 16 B/op must fail: %v\n%s", err, out)
	}
}

// TestCompareDisjointBenchmarksTolerated: benchmarks the manifest does not
// list, in the run or in the previous run, neither fail nor pass the gate.
func TestCompareDisjointBenchmarksTolerated(t *testing.T) {
	run, prev := clone(t, baselineReport()), clone(t, baselineReport())
	run.Benchmarks = append(run.Benchmarks,
		row("varbench", "BenchmarkNewThing", map[string]float64{"ns/op": 1}),
		// A listed name in a package that does not list it.
		row("varbench/store", "BenchmarkRetryNoFault", map[string]float64{"allocs/op": 9}))
	prev.Benchmarks = append(prev.Benchmarks, row("varbench", "BenchmarkRetired", map[string]float64{"ns/op": 1}))
	if out, err := runGate(t, run, &prev); err != nil {
		t.Fatalf("unlisted benchmarks must not fail the gate: %v\n%s", err, out)
	}
}

// TestCompareMetricsSelection: each metric is gated against one reference.
// ns/op only against the previous run and only for ns_op entries; an entry
// naming its own metrics gates those instead of B/op and allocs/op.
func TestCompareMetricsSelection(t *testing.T) {
	prev := baselineReport()
	run := clone(t, prev)
	find(t, run, "BenchmarkRetryNoFault").Metrics["ns/op"] = 300 // not an ns_op entry
	lint := find(t, run, "BenchmarkLintRepo")
	lint.Metrics["ns/op"] *= 3
	lint.Metrics["B/op"] = 1e9 // not gated for this entry
	lint.Metrics["allocs/op"] = 1e7
	out, err := runGate(t, run, &prev)
	if err != nil {
		t.Fatalf("ungated metrics must not fail: %v\n%s", err, out)
	}
	for _, ungated := range [][2]string{
		{"varbench.BenchmarkRetryNoFault", "ns/op"},
		{"varbench/internal/lint.BenchmarkLintRepo", "B/op"},
		{"varbench/internal/lint.BenchmarkLintRepo", "allocs/op"},
	} {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == ungated[0] && f[1] == ungated[1] {
				t.Errorf("ungated %s was checked: %s", ungated, line)
			}
		}
	}
	if !strings.Contains(out, "varbench/internal/lint.BenchmarkLintRepo") {
		t.Errorf("the gated B/line row was not checked:\n%s", out)
	}
	delete(lint.Metrics, "B/line")
	if out, err := runGate(t, run, &prev); err == nil ||
		!strings.Contains(out, "varbench/internal/lint.BenchmarkLintRepo: the run reports no B/line") {
		t.Fatalf("a gated metric missing from the run must fail: %v\n%s", err, out)
	}
}

// TestCompareNoCommonBenchmarks: a run that shares no row with the baseline
// fails and names every row. Names carrying a -N GOMAXPROCS suffix are such
// a run.
func TestCompareNoCommonBenchmarks(t *testing.T) {
	run := clone(t, baselineReport())
	for i := range run.Benchmarks {
		run.Benchmarks[i].Name += "-2"
	}
	out, err := runGate(t, run, nil)
	if err == nil {
		t.Fatalf("a suffixed run must fail, got %v\n%s", err, out)
	}
	for _, b := range baselineReport().Benchmarks {
		if !strings.Contains(out, rowKey(b)+": listed but missing from the run") {
			t.Errorf("%s not named as missing:\n%s", rowKey(b), out)
		}
	}
}

func TestCompareBadInputs(t *testing.T) {
	if _, _, err := loadGate(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing manifest must error")
	}
	base := baselineReport()
	extraRow := clone(t, base)
	extraRow.Benchmarks = append(extraRow.Benchmarks, row("varbench", "BenchmarkUnlisted", map[string]float64{"B/op": 1, "allocs/op": 1}))
	noLintRows := clone(t, base)
	noLintRows.Benchmarks = noLintRows.Benchmarks[:4]
	noMetric := clone(t, base)
	delete(find(t, noMetric, "BenchmarkRetryNoFault").Metrics, "allocs/op")
	cases := []struct {
		name, manifest string
		base           Report
		want           string
	}{
		{"malformed manifest", "not json", base, "invalid character"},
		{"unknown field", strings.Replace(testManifest, `"ns_op"`, `"ns-op"`, 1), base, "unknown field"},
		{"non-positive tolerance", strings.Replace(testManifest, `"tolerance": 0.2`, `"tolerance": -0.1`, 1), base, "tolerance must be positive"},
		{"sub-benchmark entry", strings.Replace(testManifest, `"BenchmarkRetryNoFault"}`, `"BenchmarkRetryNoFault/x"}`, 1), base, "baseline row varbench.BenchmarkRetryNoFault has no manifest entry"},
		{"baseline row without entry", testManifest, extraRow, "baseline row varbench.BenchmarkUnlisted has no manifest entry"},
		{"entry without baseline row", testManifest, noLintRows, "entry varbench/internal/lint.BenchmarkLintRepo has no baseline row"},
		{"baseline row lacks gated metric", testManifest, noMetric, "baseline row varbench.BenchmarkRetryNoFault lacks gated metric allocs/op"},
		{"assertion names an unlisted benchmark", strings.Replace(testManifest, `"zero": "varbench.BenchmarkRetryNoFault"`, `"zero": "varbench.BenchmarkOther"`, 1), base, "names varbench.BenchmarkOther, which is not a baseline row"},
		{"assertion with both forms", strings.Replace(testManifest, `"zero": "varbench.BenchmarkRetryNoFault",`, `"zero": "varbench.BenchmarkRetryNoFault", "ratio": ["a", "b"],`, 1), base, "must be {zero, metric} or {ratio"},
		{"ratio without bound", strings.Replace(testManifest, `, "at_least": 5`, ``, 1), base, "must be {zero, metric} or {ratio"},
	}
	for _, c := range cases {
		if _, _, err := loadGate(writeGate(t, c.manifest, c.base)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.want, err)
		}
	}
	bad := writeGate(t, testManifest, base)
	if err := os.WriteFile(filepath.Join(filepath.Dir(bad), "base.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadGate(bad); err == nil {
		t.Error("malformed baseline must error")
	}
}

func TestRunCompareFlagParsing(t *testing.T) {
	manifest := writeGate(t, testManifest, baselineReport())
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"stray-arg"}, "unexpected arguments"},
		{[]string{"-prev", "prev.json"}, "need -gate"},
		{[]string{"-gate", manifest, "a.json", "b.json"}, "unexpected arguments"},
		{[]string{"-compare", "a.json", "b.json"}, "flag provided but not defined"},
	} {
		if err := runCLI(t, c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: want error containing %q, got %v", c.args, c.want, err)
		}
	}
}

// TestCompareAllowMissingBaseline: the previous run is optional (the first
// run after a rename finds no artifact), but once given it must load; the
// checked-in baseline is never optional.
func TestCompareAllowMissingBaseline(t *testing.T) {
	manifest := writeGate(t, testManifest, baselineReport())
	dir := filepath.Dir(manifest)
	run := writeJSON(t, dir, "run.json", baselineReport())
	if err := runCLI(t, "-gate", manifest, run); err != nil {
		t.Fatalf("no -prev: want pass, got %v", err)
	}
	if out, err := runGate(t, baselineReport(), nil); err != nil || !strings.Contains(out, "ns/op is not gated") {
		t.Errorf("no previous run must say ns/op is unchecked: %v\n%s", err, out)
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json at {{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, prev := range []string{filepath.Join(dir, "missing.json"), garbage} {
		if err := runCLI(t, "-gate", manifest, "-prev", prev, run); err == nil {
			t.Errorf("unusable -prev %s must fail", prev)
		}
	}
	if err := os.Remove(filepath.Join(dir, "base.json")); err != nil {
		t.Fatal(err)
	}
	if err := runCLI(t, "-gate", manifest, run); err == nil {
		t.Error("missing baseline must fail")
	}
}

// TestReportMarshalNaNMetric: a NaN custom metric (b.ReportMetric of a
// degenerate ratio) encodes as null instead of failing the document.
func TestReportMarshalNaNMetric(t *testing.T) {
	rep := Report{Benchmarks: []Benchmark{{
		Name: "BenchmarkDegenerate", Iterations: 1,
		Metrics: map[string]float64{"ns/op": 10, "ratio": math.NaN()},
	}}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal with NaN metric: %v", err)
	}
	if !strings.Contains(string(data), `"ratio":null`) {
		t.Errorf("NaN metric must encode as null: %s", data)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Benchmarks[0].Metrics["ns/op"] != 10 {
		t.Errorf("finite metric lost: %+v", back.Benchmarks[0])
	}
}

// TestCompareAllocsGate pins the gate for allocation-free paths: allocs/op
// is gated by default, and a 0 allocs/op baseline fails on any allocation,
// since relative tolerance has no meaning at zero.
func TestCompareAllocsGate(t *testing.T) {
	if !strings.Contains(strings.Join(defaultGatedMetrics, ","), "allocs/op") {
		t.Fatalf("default gated metrics %v must include allocs/op", defaultGatedMetrics)
	}
	// Without the == 0 assertion, the baseline alone must catch it.
	m, base, err := loadGate(writeGate(t, strings.Replace(testManifest,
		`,
    {"zero": "varbench.BenchmarkRetryNoFault", "metric": "allocs/op"}`, ``, 1), baselineReport()))
	if err != nil {
		t.Fatal(err)
	}
	run := clone(t, baselineReport())
	find(t, run, "BenchmarkRetryNoFault").Metrics["allocs/op"] = 1
	var buf bytes.Buffer
	if err := gate(m, base, &run, nil, &buf); err == nil ||
		!strings.Contains(buf.String(), "varbench.BenchmarkRetryNoFault allocs/op: 0 -> 1") {
		t.Fatalf("0 -> 1 allocs/op must fail without the assertion too: %v\n%s", err, buf.String())
	}
}

// TestRepoManifest checks the checked-in gate without running a benchmark:
// the manifest parses, it and the baseline agree row for row, every
// assertion names baseline rows, and every listed Benchmark function
// exists in its package.
func TestRepoManifest(t *testing.T) {
	const root = "../.."
	m, base, err := loadGate(filepath.Join(root, "benchgate.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Benchmarks) == 0 || len(m.Assertions) == 0 {
		t.Fatalf("empty gate: %d baseline rows, %d assertions", len(base.Benchmarks), len(m.Assertions))
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	module := ""
	for sc := bufio.NewScanner(bytes.NewReader(gomod)); sc.Scan(); {
		if rest, ok := strings.CutPrefix(sc.Text(), "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	if module == "" {
		t.Fatal("go.mod names no module")
	}
	funcs := make(map[string]map[string]bool) // package -> Benchmark funcs
	for _, e := range m.Benchmarks {
		if funcs[e.Package] == nil {
			rel, ok := strings.CutPrefix(e.Package, module)
			if !ok || (rel != "" && rel[0] != '/') {
				t.Errorf("entry %s.%s: package outside module %s", e.Package, e.Benchmark, module)
				continue
			}
			funcs[e.Package] = benchmarkFuncs(t, filepath.Join(root, filepath.FromSlash(rel)))
		}
		if !funcs[e.Package][e.Benchmark] {
			t.Errorf("entry %s.%s: no such function in the package's _test.go files", e.Package, e.Benchmark)
		}
	}
}

// benchmarkFuncs parses dir's _test.go files and returns the names of their
// top-level Benchmark functions.
func benchmarkFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	fset := token.NewFileSet()
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				out[fn.Name.Name] = true
			}
		}
	}
	return out
}
