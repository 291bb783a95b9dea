package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"varbench"
	"varbench/internal/ingest"
	"varbench/store"
)

// runCompare implements the `varbench compare` subcommand: the recommended
// statistical protocol on pre-collected score files, concluding with the
// three-zone decision. Score files are CSV with either one score per line
// (single benchmark) or dataset,score pairs (multi-dataset comparison with
// a Bonferroni-adjusted threshold), where fields may be quoted; blank
// lines are skipped, and a digit-free first line is treated as a header.
func runCompare(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("varbench compare", flag.ContinueOnError)
	fileA := fs.String("a", "", "CSV scores of algorithm A (required)")
	fileB := fs.String("b", "", "CSV scores of algorithm B (required)")
	gamma := fs.Float64("gamma", varbench.DefaultGamma, "meaningfulness threshold for P(A>B)")
	confidence := fs.Float64("confidence", varbench.DefaultConfidence, "bootstrap CI confidence level")
	bootstrap := fs.Int("bootstrap", varbench.DefaultBootstrap, "bootstrap resamples of the -unpaired test (paired reports compute the exact K → ∞ interval and ignore it)")
	seed := fs.Uint64("seed", 1, "bootstrap seed of the -unpaired test (paired reports draw no randomness and ignore it)")
	unpaired := fs.Bool("unpaired", false, "scores were not collected under shared seeds (single dataset only)")
	format := fs.String("format", "text", "output format: text, json or csv")
	storeDir := fs.String("store", "", "result-store DSN (a directory, seglog:DIR or mem:): the analysis is cached by a fingerprint of the score files and protocol flags, and reused verbatim when nothing changed")
	waitLock := fs.Duration("wait-lock", 0, "wait up to this long for another process to release the store lock instead of failing immediately (0: fail immediately)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: varbench compare -a scoresA.csv -b scoresB.csv [flags]")
		fmt.Fprintln(fs.Output(), "score files: one score per line, or dataset,score rows for multi-dataset runs")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fileA == "" || *fileB == "" {
		fs.Usage()
		return fmt.Errorf("compare needs both -a and -b score files")
	}
	var ren varbench.Renderer
	switch *format {
	case "text":
		ren = varbench.TextRenderer{}
	case "json":
		ren = varbench.JSONRenderer{Indent: true}
	case "csv":
		ren = varbench.CSVRenderer{}
	default:
		return fmt.Errorf("unknown format %q (want text, json or csv)", *format)
	}

	scoresA, rawA, err := readScores(*fileA)
	if err != nil {
		return err
	}
	scoresB, rawB, err := readScores(*fileB)
	if err != nil {
		return err
	}
	opts := []varbench.Option{
		varbench.WithGamma(*gamma),
		varbench.WithConfidence(*confidence),
		varbench.WithBootstrap(*bootstrap),
		varbench.WithSeed(*seed),
	}

	// With -store, the complete Result is cached under a fingerprint of
	// every input that determines it — the raw score files and the protocol
	// flags (-format is deliberately excluded: one cached analysis renders
	// as text, JSON or CSV alike). v2 marks results whose paired interval
	// is the exact one: a v1 result holds a Monte Carlo estimate of it and
	// is recomputed. An unchanged rerun decodes the cached
	// result instead of redoing the analysis; any input change misses the
	// fingerprint and recomputes.
	const compareKey = "varbench-compare/analysis"
	var st store.Backend
	var resultFP string
	if *storeDir != "" {
		if st, err = openStore(ctx, *storeDir, *waitLock); err != nil {
			return err
		}
		defer st.Close()
		resultFP = store.Fingerprint(
			"varbench-compare/v2",
			string(rawA), string(rawB),
			fmt.Sprintf("gamma=%v/confidence=%v/bootstrap=%d/seed=%d/unpaired=%t",
				*gamma, *confidence, *bootstrap, *seed, *unpaired),
		)
		var cached varbench.Result
		ok, err := st.GetJSON(compareKey, resultFP, &cached)
		if err != nil {
			return err
		}
		if ok {
			fmt.Fprintf(os.Stderr, "varbench: store %s: analysis reused\n", *storeDir)
			return cached.Render(w, ren)
		}
	}

	var res *varbench.Result
	if scoresA.named() || scoresB.named() {
		// Any named dataset goes through the dataset-aware path, so names
		// are cross-checked between the files and kept in the report. A
		// single named dataset gets no γ adjustment.
		if *unpaired {
			return fmt.Errorf("-unpaired is only supported for unnamed single-dataset score files")
		}
		var multi []varbench.DatasetScores
		for _, name := range scoresA.datasets {
			b, ok := scoresB.byDataset[name]
			if !ok {
				if name == "" {
					return fmt.Errorf("%s has unnamed scores but %s uses dataset labels", *fileA, *fileB)
				}
				return fmt.Errorf("dataset %q present in %s but missing from %s", name, *fileA, *fileB)
			}
			multi = append(multi, varbench.DatasetScores{
				Name:    name,
				ScoresA: scoresA.byDataset[name],
				ScoresB: b,
			})
		}
		if len(scoresB.datasets) != len(scoresA.datasets) {
			return fmt.Errorf("%s and %s disagree on the dataset list", *fileA, *fileB)
		}
		res, err = varbench.AnalyzeDatasets(multi, opts...)
	} else {
		if *unpaired {
			opts = append(opts, varbench.WithUnpaired())
		}
		res, err = varbench.Analyze(scoresA.byDataset[""], scoresB.byDataset[""], opts...)
	}
	if err != nil {
		return err
	}
	if st != nil {
		if err := st.PutJSON(compareKey, resultFP, res); err != nil {
			return err
		}
		if err := st.Flush(); err != nil {
			return err
		}
	}
	return res.Render(w, ren)
}

// scoreFile holds the parsed contents of one score CSV, preserving dataset
// order of first appearance.
type scoreFile struct {
	datasets  []string
	byDataset map[string][]float64
}

// named reports whether the file carries dataset labels.
func (s *scoreFile) named() bool {
	return len(s.datasets) > 1 || s.datasets[0] != ""
}

// readScores reads and parses one score CSV. The raw bytes are returned
// alongside the parsed scores so the -store fingerprint can hash exactly
// what was analyzed: re-reading the file for hashing would open a window
// in which a concurrently rewritten file poisons the cache (analysis of
// the old bytes stored under the new bytes' fingerprint).
func readScores(path string) (*scoreFile, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	out, err := parseScores(path, data)
	if err != nil {
		return nil, nil, err
	}
	return out, data, nil
}

// parseScores parses the bytes of the score CSV at path, one line at a
// time, with encoding/csv's meaning: blank lines are skipped, a final "\r"
// is dropped from every line, and a line that holds a '"' is read by
// encoding/csv itself, so quoted dataset names keep working. Any other
// line is split on its commas here, which is all encoding/csv would do to
// it. A quoted field may not span lines (no score needs one). Errors name
// the file line.
//
// While the current dataset is the unnamed one, a line that is exactly
// `num`, a plain decimal, and ends in "\n" or "\r\n" is framed and parsed
// in one pass by the scanner ParseScore uses. Every
// other line is cut at its newline, searched for from where that scan
// stopped, and goes to scoreParser.line, which says what it means; both
// give the same scores (FuzzReadScores).
func parseScores(path string, data []byte) (*scoreFile, error) {
	p := scoreParser{
		path: path,
		out:  &scoreFile{byDataset: make(map[string][]float64)},
		// Room for a score on every line, so that the first dataset, often
		// the only one, never regrows.
		scores: make([]float64, 0, bytes.Count(data, []byte("\n"))+1),
	}
	for len(data) > 0 {
		n := 0 // where the scan stopped: the line's newline lies beyond it
		if len(p.out.datasets) > 0 && p.cur == "" {
			v, k, ok := ingest.Scan(data)
			e := lineEnd(data[k:])
			if e > 0 && k > 0 && !ok {
				v, ok = ingest.Long(data[:k]) // more than 15 digits
			}
			if ok && e > 0 {
				p.lineNo++
				p.records++
				p.scores = append(p.scores, v)
				data = data[k+e:]
				continue
			}
			n = k
		}
		line := data
		if i := bytes.IndexByte(data[n:], '\n'); i >= 0 {
			line, data = data[:n+i], data[n+i+1:]
		} else {
			data = nil // the last line, with no newline
		}
		if err := p.line(trimCR(line)); err != nil {
			return nil, err
		}
	}
	if len(p.out.datasets) == 0 {
		return nil, fmt.Errorf("%s: no scores found", path)
	}
	p.out.byDataset[p.cur] = p.scores
	return p.out, nil
}

// lineEnd returns the length of the line end that data starts with: 1 for
// "\n", 2 for "\r\n", and 0 when it starts with neither.
func lineEnd(data []byte) int {
	switch {
	case len(data) > 0 && data[0] == '\n':
		return 1
	case len(data) > 1 && data[0] == '\r' && data[1] == '\n':
		return 2
	}
	return 0
}

// A scoreParser parses the lines of one score file. It appends to the
// current dataset's scores and touches the map only when the dataset label
// changes.
type scoreParser struct {
	path    string
	lineNo  int // of the line being parsed
	records int // non-blank lines so far, this one included
	out     *scoreFile
	cur     string    // the current dataset's label,
	scores  []float64 // and its scores so far
}

func (p *scoreParser) line(line []byte) error {
	p.lineNo++
	if len(line) == 0 {
		return nil
	}
	p.records++
	var dataset, field []byte
	if bytes.IndexByte(line, '"') >= 0 {
		rec, err := p.quoted(line)
		if err != nil {
			return err
		}
		switch len(rec) {
		case 1:
			field = []byte(rec[0])
		case 2:
			dataset, field = []byte(rec[0]), []byte(rec[1])
		default:
			return p.fieldCount(len(rec))
		}
	} else if comma := bytes.IndexByte(line, ','); comma < 0 {
		field = line
	} else {
		dataset, field = line[:comma], line[comma+1:]
		if extra := bytes.Count(field, []byte(",")); extra > 0 {
			return p.fieldCount(2 + extra)
		}
	}
	v, err := varbench.ParseScore(field)
	if err != nil {
		// Only a digit-free first line reads as a header; a malformed
		// first score (e.g. `O.85`) must error, not be skipped.
		if p.records == 1 && !bytes.ContainsAny(field, "0123456789") {
			return nil
		}
		return fmt.Errorf("%s:%d: bad score %q", p.path, p.lineNo, field)
	}
	// NaN/Inf (failed runs in exported logs) would silently bias
	// P(A>B) and break JSON output; reject them up front.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s:%d: non-finite score %q", p.path, p.lineNo, field)
	}
	if len(p.out.datasets) == 0 || string(dataset) != p.cur {
		p.switchTo(string(dataset))
	}
	p.scores = append(p.scores, v)
	return nil
}

// switchTo makes dataset the current one. The first dataset keeps the
// slice parseScores sized; a later switch saves the current scores and
// picks up the dataset's own.
func (p *scoreParser) switchTo(dataset string) {
	if len(p.out.datasets) > 0 {
		p.out.byDataset[p.cur] = p.scores
		p.scores = p.out.byDataset[dataset]
	}
	if _, seen := p.out.byDataset[dataset]; !seen {
		p.out.datasets = append(p.out.datasets, dataset)
	}
	p.cur = dataset
}

// quoted reads one line that holds a '"' with encoding/csv. It is handed
// the line with "\r\n", which encoding/csv reads as the "\n" that ended the
// line in the file, keeping any "\r" the line itself ends with.
func (p *scoreParser) quoted(line []byte) ([]string, error) {
	cr := csv.NewReader(bytes.NewReader(append(line[:len(line):len(line)], '\r', '\n')))
	cr.FieldsPerRecord = -1
	rec, err := cr.Read()
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += p.lineNo - 1
			pe.Line += p.lineNo - 1
		}
		return nil, fmt.Errorf("%s: %w", p.path, err)
	}
	return rec, nil
}

func (p *scoreParser) fieldCount(n int) error {
	return fmt.Errorf("%s:%d: want `score` or `dataset,score`, got %d fields", p.path, p.lineNo, n)
}
