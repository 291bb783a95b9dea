package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"varbench"
	"varbench/e2ebench/trace"
	"varbench/internal/casestudy"
	"varbench/internal/data"
	"varbench/internal/estimator"
	"varbench/internal/experiments"
	"varbench/internal/nn"
	"varbench/internal/xrand"
)

// runVariance is the traced twin of
// `varbench variance -task tiny -k K -realizations R -p P -seed S -store DSN`.
func runVariance(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("runner variance", flag.ContinueOnError)
	k := fs.Int("k", 0, "measures per source per realization")
	realizations := fs.Int("realizations", 0, "independent realizations")
	seed := fs.Uint64("seed", 1, "study seed")
	par := fs.Int("p", 0, "worker-pool size")
	dsn := fs.String("store", "", "trial-store DSN (required)")
	traceFile := fs.String("trace", "", "write spans to this file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dsn == "" || *traceFile == "" {
		return fmt.Errorf("variance needs -store and -trace")
	}
	s := begin(*traceFile)
	task := casestudy.Tiny(experiments.StructSeed)
	var probe []varbench.Source
	for _, v := range task.Sources() {
		if v != estimator.NumericalNoise {
			probe = append(probe, varbench.Source(v))
		}
	}
	params := task.Defaults()
	// pipeline.RunWithParams, call by call: Split, Concat, Build, Train,
	// Measure, with the CLI's per-source stream assignment.
	runTrial := func(t varbench.Trial) (float64, error) {
		id := int64(t.Index)
		ti := s.tr.Start(trace.Trial, s.tr.Scope(), id)
		defer s.tr.End(ti)
		streams := xrand.NewStreams(0)
		for _, v := range xrand.AllVars() {
			streams.Reseed(v, t.SourceSeed(varbench.Source(v)))
		}
		i := s.tr.Start(trace.TrialSplit, ti, id)
		split, err := task.Split(streams.Get(xrand.VarDataSplit))
		s.tr.End(i)
		if err != nil {
			return 0, err
		}
		stv, err := data.Concat(split.Train, split.Valid)
		if err != nil {
			return 0, err
		}
		cfg, err := task.Build(params)
		if err != nil {
			return 0, err
		}
		i = s.tr.Start(trace.TrialTrain, ti, id)
		res, err := nn.Train(cfg, stv, streams)
		s.tr.End(i)
		if err != nil {
			return 0, err
		}
		i = s.tr.Start(trace.TrialMeasure, ti, id)
		score := task.Measure(res.Model, split.Test)
		s.tr.End(i)
		return score, nil
	}
	st, err := s.openStore(*dsn)
	if err != nil {
		return err
	}
	defer st.Close()
	study := varbench.VarianceStudy{
		Name:         task.Name(),
		Pipeline:     runTrial,
		Sources:      probe,
		K:            *k,
		Realizations: *realizations,
		Seed:         *seed,
		Parallelism:  *par,
		Store:        st,
		PipelineID:   fmt.Sprintf("varbench-variance/task=%s/structseed=%d", task.Name(), experiments.StructSeed),
	}
	_, end := s.enter(trace.CollectVariance)
	rep, err := study.Run(ctx)
	end()
	if err != nil {
		return err
	}
	if err := s.render(w, func(w io.Writer) error { return rep.Render(w, varbench.VarianceTextRenderer{}) }); err != nil {
		return err
	}
	end = s.span(trace.StoreClose)
	err = st.Close()
	end()
	if err != nil {
		return err
	}
	return s.finish()
}

// analysisOptions are the protocol options `varbench watch` and
// `varbench compare` pass at their flag defaults.
func analysisOptions(seed uint64) []varbench.Option {
	return []varbench.Option{
		varbench.WithGamma(varbench.DefaultGamma),
		varbench.WithConfidence(varbench.DefaultConfidence),
		varbench.WithBootstrap(varbench.DefaultBootstrap),
		varbench.WithSeed(seed),
	}
}

// runWatch is the traced twin of `varbench watch -file F -seed S` on a
// bounded file: the same 64 KiB reads, LineTailer framing, per-chunk
// Stream.Extend and final Stream.Result.
func runWatch(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("runner watch", flag.ContinueOnError)
	file := fs.String("file", "", "score file (required)")
	seed := fs.Uint64("seed", 1, "bootstrap seed")
	traceFile := fs.String("trace", "", "write spans to this file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" || *traceFile == "" {
		return fmt.Errorf("watch needs -file and -trace")
	}
	s := begin(*traceFile)
	stream, err := varbench.NewStream(analysisOptions(*seed)...)
	if err != nil {
		return err
	}
	defer stream.Close()
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()

	var (
		tailer         varbench.LineTailer
		batchA, batchB []float64
		badLines       int
		lines          int64
		feed           = -1 // the open Feed span the parses nest under
		buf            = make([]byte, 64*1024)
	)
	emit := func(line []byte) error {
		i := s.tr.Start(trace.IngestParse, feed, lines)
		a, b, ok, err := varbench.ParseScorePair(line)
		s.tr.End(i)
		lines++
		if err != nil {
			badLines++
			fmt.Fprintf(os.Stderr, "varbench: %s: skipping %v\n", *file, err)
			return nil
		}
		if ok {
			batchA = append(batchA, a)
			batchB = append(batchB, b)
		}
		return nil
	}
	flush := func() error {
		if len(batchA) == 0 {
			return nil
		}
		end := s.span(trace.AnalysisExtend)
		_, err := stream.Extend(batchA, batchB)
		end()
		s.tr.Add(trace.CountExtendCells, int64(len(batchA))*varbench.DefaultBootstrap)
		batchA, batchB = batchA[:0], batchB[:0]
		return err
	}
	feedChunk := func(chunk []byte) error {
		feed = s.tr.Start(trace.IngestFeed, s.root, trace.NoID)
		err := tailer.Feed(chunk, emit)
		s.tr.End(feed)
		return err
	}
	for {
		n, readErr := f.Read(buf)
		if n > 0 {
			if err := feedChunk(buf[:n]); err != nil {
				return err
			}
			if err := flush(); err != nil {
				return err
			}
		}
		if readErr == io.EOF {
			break
		}
		if readErr != nil {
			return fmt.Errorf("%s: %w", *file, readErr)
		}
	}
	if rem := tailer.Remainder(); len(rem) > 0 {
		feed = s.root
		if err := emit(rem); err != nil {
			return err
		}
		if err := flush(); err != nil {
			return err
		}
	}
	s.tr.Add(trace.CountBadLines, int64(badLines))
	if err := stream.Flush(); err != nil {
		return err
	}
	if stream.N() < 2 {
		return fmt.Errorf("%s: %d score pairs is not enough to analyze (want ≥ 2)", *file, stream.N())
	}
	end := s.span(trace.AnalysisResult)
	res, err := stream.Result()
	end()
	if err != nil {
		return err
	}
	if err := s.render(w, func(w io.Writer) error { return res.Render(w, varbench.TextRenderer{}) }); err != nil {
		return err
	}
	if badLines > 0 {
		if _, err := fmt.Fprintf(w, "skipped: %d malformed line(s) — not part of the analysis\n", badLines); err != nil {
			return err
		}
	}
	return s.finish()
}

// runCompare is the traced twin of `varbench compare -a A -b B -seed S` on
// single-column score files.
func runCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("runner compare", flag.ContinueOnError)
	fileA := fs.String("a", "", "scores of algorithm A (required)")
	fileB := fs.String("b", "", "scores of algorithm B (required)")
	seed := fs.Uint64("seed", 1, "bootstrap seed")
	traceFile := fs.String("trace", "", "write spans to this file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fileA == "" || *fileB == "" || *traceFile == "" {
		return fmt.Errorf("compare needs -a, -b and -trace")
	}
	s := begin(*traceFile)
	scoresA, err := readColumn(*fileA)
	if err != nil {
		return err
	}
	scoresB, err := readColumn(*fileB)
	if err != nil {
		return err
	}
	s.tr.Add(trace.CountAnalyzeCells, int64(len(scoresA))*varbench.DefaultBootstrap)
	end := s.span(trace.AnalysisAnalyze)
	res, err := varbench.Analyze(scoresA, scoresB, analysisOptions(*seed)...)
	end()
	if err != nil {
		return err
	}
	if err := s.render(w, func(w io.Writer) error { return res.Render(w, varbench.TextRenderer{}) }); err != nil {
		return err
	}
	return s.finish()
}

// readColumn parses a one-score-per-line CSV file the way the compare
// command does: whole file read, CSV records, strconv.ParseFloat.
func readColumn(path string) ([]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cr := csv.NewReader(bytes.NewReader(raw))
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make([]float64, 0, len(records))
	for i, rec := range records {
		if len(rec) != 1 {
			return nil, fmt.Errorf("%s:%d: want one score per line", path, i+1)
		}
		v, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad score %q", path, i+1, rec[0])
		}
		out = append(out, v)
	}
	return out, nil
}
