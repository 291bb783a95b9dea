package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"varbench"
	"varbench/internal/xrand"
)

// writeScores writes one CSV score file; dataset "" emits single-column
// rows.
func writeScores(t *testing.T, name, dataset string, scores []float64) string {
	t.Helper()
	var buf bytes.Buffer
	for _, v := range scores {
		if dataset == "" {
			fmt.Fprintf(&buf, "%g\n", v)
		} else {
			fmt.Fprintf(&buf, "%s,%g\n", dataset, v)
		}
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func pairedScores(seed uint64, n int, diff float64) (a, b []float64) {
	r := xrand.New(seed)
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		base := r.NormFloat64()
		a[i] = base + diff
		b[i] = base + 0.2*r.NormFloat64()
	}
	return a, b
}

func TestCompareSubcommandText(t *testing.T) {
	a, b := pairedScores(1, 40, 2)
	fa := writeScores(t, "a.csv", "", a)
	fb := writeScores(t, "b.csv", "", b)
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"compare", "-a", fa, "-b", fb}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "significant and meaningful") {
		t.Errorf("dominant pair not detected:\n%s", out)
	}
	if !strings.Contains(out, "P(A>B)") {
		t.Errorf("missing P(A>B) line:\n%s", out)
	}
}

func TestCompareSubcommandJSON(t *testing.T) {
	a, b := pairedScores(2, 30, 2)
	fa := writeScores(t, "a.csv", "", a)
	fb := writeScores(t, "b.csv", "", b)
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"compare", "-a", fa, "-b", fb, "-format", "json", "-gamma", "0.6"}, &buf); err != nil {
		t.Fatal(err)
	}
	var res varbench.Result
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if res.Comparison.Gamma != 0.6 {
		t.Errorf("γ flag ignored: %v", res.Comparison.Gamma)
	}
	if res.Comparison.Conclusion != varbench.SignificantAndMeaningful {
		t.Errorf("conclusion = %s", res.Comparison.Conclusion)
	}
}

func TestCompareSubcommandMultiDataset(t *testing.T) {
	var bufA, bufB bytes.Buffer
	for _, ds := range []string{"mnist", "sst2", "rte"} {
		a, b := pairedScores(uint64(len(ds)), 25, 1.5)
		for i := range a {
			fmt.Fprintf(&bufA, "%s,%g\n", ds, a[i])
			fmt.Fprintf(&bufB, "%s,%g\n", ds, b[i])
		}
	}
	dir := t.TempDir()
	fa := filepath.Join(dir, "a.csv")
	fb := filepath.Join(dir, "b.csv")
	if err := os.WriteFile(fa, bufA.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fb, bufB.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"compare", "-a", fa, "-b", fb, "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, ds := range []string{"mnist", "sst2", "rte"} {
		if !strings.Contains(got, ds) {
			t.Errorf("dataset %s missing from CSV output:\n%s", ds, got)
		}
	}
}

func TestCompareSubcommandHeaderAndUnpaired(t *testing.T) {
	dir := t.TempDir()
	fa := filepath.Join(dir, "a.csv")
	fb := filepath.Join(dir, "b.csv")
	if err := os.WriteFile(fa, []byte("score\n5\n6\n7\n8\n9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fb, []byte("score\n1\n2\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// Unequal lengths require -unpaired.
	if err := run(context.Background(), []string{"compare", "-a", fa, "-b", fb}, &buf); err == nil {
		t.Error("unequal paired lengths accepted")
	}
	buf.Reset()
	if err := run(context.Background(), []string{"compare", "-a", fa, "-b", fb, "-unpaired"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestCompareSubcommandSingleDatasetNameMismatch(t *testing.T) {
	// Two files each carrying one *differently named* dataset must not be
	// silently paired.
	a, b := pairedScores(4, 10, 1)
	fa := writeScores(t, "a.csv", "mnist", a)
	fb := writeScores(t, "b.csv", "cifar", b)
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"compare", "-a", fa, "-b", fb}, &buf); err == nil {
		t.Error("mismatched single dataset names accepted")
	}
	// Same name is fine.
	fb2 := writeScores(t, "b2.csv", "mnist", b)
	if err := run(context.Background(), []string{"compare", "-a", fa, "-b", fb2}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestCompareSubcommandErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"compare"}, &buf); err == nil {
		t.Error("missing score files accepted")
	}
	if err := run(context.Background(), []string{"compare", "-a", "nope.csv", "-b", "nope.csv"}, &buf); err == nil {
		t.Error("missing file accepted")
	}
	a, b := pairedScores(3, 10, 1)
	fa := writeScores(t, "a.csv", "", a)
	fb := writeScores(t, "b.csv", "", b)
	if err := run(context.Background(), []string{"compare", "-a", fa, "-b", fb, "-format", "yaml"}, &buf); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run(context.Background(), []string{"compare", "-a", fa, "-b", fb, "-gamma", "0.3"}, &buf); err == nil {
		t.Error("invalid γ accepted")
	}
	// NaN fails every comparison, so it must fail the γ range check itself,
	// not a budget derived from it.
	if err := run(context.Background(), []string{"compare", "-a", fa, "-b", fb, "-gamma", "NaN"}, &buf); err == nil || !strings.Contains(err.Error(), "γ") {
		t.Errorf("-gamma NaN: err = %v, want the γ range error", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("1\nnot-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"compare", "-a", bad, "-b", fb}, &buf); err == nil {
		t.Error("malformed score accepted")
	}
	// A malformed *first* score (contains digits) is corruption, not a
	// header, and must not be silently skipped.
	typo := filepath.Join(t.TempDir(), "typo.csv")
	if err := os.WriteFile(typo, []byte("O.85\n0.9\n0.91\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"compare", "-a", typo, "-b", fb, "-unpaired"}, &buf); err == nil {
		t.Error("typo'd first score silently dropped as a header")
	}
	// Errors name the line of the file: blank lines count, also before a
	// line that encoding/csv reads.
	for _, c := range []struct{ data, want string }{
		{"0.5\n\n\n0.6\nabc1\n", `lines.csv:5: bad score "abc1"`},
		{"0.5\n\n\"ds\",abc1\n", `lines.csv:3: bad score "abc1"`},
		{"0.5\r\n\r\nx\"y,0.6\r\n", `lines.csv: parse error on line 3, column 2: bare " in non-quoted-field`},
		{"0.5\n\n\"ds,0.6\n0.7\n", `lines.csv: parse error on line 3,`}, // a quoted field may not span lines
		{"0.5\n\n1,2,3\n", "lines.csv:3: want `score` or `dataset,score`, got 3 fields"},
	} {
		path := filepath.Join(t.TempDir(), "lines.csv")
		if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(context.Background(), []string{"compare", "-a", path, "-b", fb}, &buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want one containing %s", c.data, err, c.want)
		}
	}
}

// TestReadScoresAllocations holds readScores to a fixed number of
// allocations however many lines the file has: a line costs none.
func TestReadScoresAllocations(t *testing.T) {
	a, _ := pairedScores(5, 10000, 0)
	path := writeScores(t, "a.csv", "", a)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := readScores(path); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 64 {
		t.Fatalf("readScores made %v allocations on a 10,000-line file, want < 64", allocs)
	}
}

// BenchmarkReadScores measures compare's reader on one score-log column:
// 50,000 lines of 6-decimal scores, as e2ebench's score-log workload writes
// them. Wired into the CI bench regression gate.
func BenchmarkReadScores(bm *testing.B) {
	r := xrand.New(41)
	var data []byte
	for i := 0; i < 50_000; i++ {
		data = append(strconv.AppendFloat(data, r.Normal(0.75, 0.02), 'f', 6, 64), '\n')
	}
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		out, err := parseScores("a.csv", data)
		if err != nil {
			bm.Fatal(err)
		}
		if n := len(out.byDataset[""]); n != 50_000 {
			bm.Fatalf("read %d scores, want 50000", n)
		}
	}
}

// readScoresCSV is the reader compare used before parseScores: the whole
// file through encoding/csv's ReadAll. It stays as parseScores' oracle.
func readScoresCSV(path string, data []byte) (*scoreFile, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := &scoreFile{byDataset: make(map[string][]float64)}
	for i, rec := range records {
		var dataset, field string
		switch len(rec) {
		case 1:
			field = rec[0]
		case 2:
			dataset, field = rec[0], rec[1]
		default:
			return nil, fmt.Errorf("%s:%d: want `score` or `dataset,score`, got %d fields", path, i+1, len(rec))
		}
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			if i == 0 && !strings.ContainsAny(field, "0123456789") {
				continue
			}
			return nil, fmt.Errorf("%s:%d: bad score %q", path, i+1, field)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s:%d: non-finite score %q", path, i+1, field)
		}
		if _, ok := out.byDataset[dataset]; !ok {
			out.datasets = append(out.datasets, dataset)
		}
		out.byDataset[dataset] = append(out.byDataset[dataset], v)
	}
	if len(out.datasets) == 0 {
		return nil, fmt.Errorf("%s: no scores found", path)
	}
	return out, nil
}

// quotedFieldSpansLine reports whether encoding/csv reads a quoted field
// of data across a line break, which parseScores refuses.
func quotedFieldSpansLine(data []byte) bool {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return false
		}
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			return pe.StartLine != pe.Line
		}
		for _, field := range rec {
			if strings.Contains(field, "\n") {
				return true
			}
		}
	}
}

// FuzzReadScores: on any bytes where no quoted field spans a line,
// parseScores agrees with the whole-file encoding/csv reader on the
// dataset order, on every score's bits and on whether the file fails.
// Error messages may differ: parseScores names the file line.
func FuzzReadScores(f *testing.F) {
	for _, seed := range []string{
		"score\n0.5\n0.6\n",
		"0.5\n\n\n0.6\nabc1\n",
		"mnist,0.9\r\nsst2,0.8\r\nmnist,0.91\r\n\r\n",
		"\"a,b\",0.5\n\"q\"\"x\",-0.75\nplain,1e-3",
		"\"ds\",0.5\r\r\nds,0.6\r",
		"dataset,score\nrte,0.7\n\"rte\",+.25\n",
		"x\"y,0.5\n",
		"\"open,0.5\n0.6\n",
		"0.5,\n0.6\n",
		"1,2,3\n",
		"NaN\n",
		"\"a\nb\",0.5\n",
		"",
		"rte,0.7\n0.5\n0.25\nrte,0.75\n0.5\n",
		"0.5\n0.76833333333333331\n-0.12345678901234567\r\n1234567890123456\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if quotedFieldSpansLine(data) {
			t.Skip("a quoted field spans a line")
		}
		got, gotErr := parseScores("f.csv", data)
		want, wantErr := readScoresCSV("f.csv", data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("parseScores error %v, encoding/csv reader error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !slices.Equal(got.datasets, want.datasets) {
			t.Fatalf("datasets %q, want %q", got.datasets, want.datasets)
		}
		for _, name := range want.datasets {
			g, w := got.byDataset[name], want.byDataset[name]
			if len(g) != len(w) {
				t.Fatalf("dataset %q: %d scores, want %d", name, len(g), len(w))
			}
			for i := range w {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Fatalf("dataset %q score %d: %v, want %v", name, i, g[i], w[i])
				}
			}
		}
	})
}
