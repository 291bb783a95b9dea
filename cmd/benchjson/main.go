// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON report on stdout, and runs the repo's benchmark
// regression gate.
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > bench.json
//	benchjson -gate benchgate.json [-prev previous.json] > bench.json
//
// Every benchmark line becomes one entry; all reported metrics (ns/op,
// B/op, allocs/op and custom b.ReportMetric units) are kept as a
// unit-keyed map. Non-benchmark lines (goos/pkg headers, PASS/ok) are
// collected into context fields when recognized and otherwise ignored.
//
// With -gate, benchjson runs the benchmarks a manifest lists, writes the
// run's report to stdout and fails unless every check of the manifest holds
// (see gate). Given a report file after the flags, it gates that report
// instead of running the benchmarks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"varbench/internal/jsonx"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// MarshalJSON implements json.Marshaler, encoding non-finite metric values
// as null: a benchmark reporting b.ReportMetric(math.NaN(), ...) — a
// degenerate ratio, a division by zero iterations — must not make the whole
// document unserializable ("json: unsupported value: NaN"). Decoding null
// back yields 0 for that metric.
func (r Report) MarshalJSON() ([]byte, error) {
	type alias Report
	return jsonx.Marshal(alias(r))
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	manifest := fs.String("gate", "", "run the benchmarks this manifest lists and gate them")
	prev := fs.String("prev", "", "with -gate, also gate ns/op against this earlier run's report")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: go test -bench . -benchmem | benchjson > bench.json")
		fmt.Fprintln(fs.Output(), "       benchjson -gate benchgate.json [-prev previous.json] [run.json] > bench.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) > 1 || (*manifest == "" && (*prev != "" || len(files) > 0)) {
		fs.Usage()
		return fmt.Errorf("unexpected arguments %v (-prev and a report file need -gate; conversion reads stdin)", args)
	}
	if *manifest == "" {
		rep, err := parse(bufio.NewScanner(os.Stdin))
		if err != nil {
			return err
		}
		return writeReport(os.Stdout, rep)
	}
	m, base, err := loadGate(*manifest)
	if err != nil {
		return err
	}
	var prevRep *Report
	if *prev != "" {
		prevRep = new(Report)
		if err := readJSON(*prev, prevRep); err != nil {
			return err
		}
	}
	rep := new(Report)
	if len(files) == 1 {
		err = readJSON(files[0], rep)
	} else if rep, err = runBenchmarks(m, os.Stderr); err == nil {
		err = writeReport(os.Stdout, rep)
	}
	if err != nil {
		return err
	}
	return gate(m, base, rep, prevRep, os.Stderr)
}

func writeReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			b.Package = pkg
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	return rep, sc.Err()
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8  1234  5678 ns/op  90 B/op  1 allocs/op  0.95 custom-unit
//
// into its name, iteration count and unit-keyed metric map.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		// The name is kept verbatim, including any -GOMAXPROCS suffix:
		// go test omits that suffix at GOMAXPROCS=1, so stripping it
		// cannot be distinguished from eating a numeric name segment.
		Name:       fields[0],
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}
