// Command runner runs the programs of the end-to-end benchmark that the
// varbench CLI does not provide:
//
//	runner experiment -seed S -max-runs M -p P -store DSN [-trace FILE]
//	runner variance   -seed S -k K -realizations R -p P -store DSN -trace FILE
//	runner watch      -file F -seed S -trace FILE
//	runner compare    -a A -b B -seed S -trace FILE
//
// experiment is the experiment-resume workload: varbench.Experiment.Run on
// two cheap seeded synthetic pipelines with a small true effect, collecting
// exactly M pairs. variance, watch and compare are traced twins of the CLI
// commands of the same names: they make the same calls into the library's
// public functions as the CLI does, in the same order, with a span around
// each, and print the same bytes on stdout, which is how the benchmark
// knows a traced run did the same work as the untraced one. With -trace the
// spans are written to FILE when the program ends.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"varbench"
	"varbench/e2ebench/trace"
	"varbench/internal/xrand"
	"varbench/store"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "runner:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: runner experiment|variance|watch|compare [flags]")
	}
	switch args[0] {
	case "experiment":
		return runExperiment(ctx, args[1:], w)
	case "variance":
		return runVariance(ctx, args[1:], w)
	case "watch":
		return runWatch(args[1:], w)
	case "compare":
		return runCompare(args[1:], w)
	}
	return fmt.Errorf("unknown program %q (want experiment, variance, watch or compare)", args[0])
}

// A recording is one traced program run: the tracer, the root span that
// covers the program's own work, and the runtime counters at its start.
// A nil recording traces nothing.
type recording struct {
	tr   *trace.Tracer
	root int
	path string
	ms0  runtime.MemStats
}

// begin starts tracing into path; an empty path means an untraced run.
func begin(path string) *recording {
	if path == "" {
		return nil
	}
	s := &recording{tr: trace.New(), path: path}
	runtime.ReadMemStats(&s.ms0)
	s.root = s.tr.Start(trace.Main, -1, trace.NoID)
	s.tr.SetScope(s.root)
	return s
}

// finish closes the root span, records the process-wide runtime counters
// and writes the spans out.
func (s *recording) finish() error {
	if s == nil {
		return nil
	}
	s.tr.End(s.root)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.tr.Add(trace.CountGC, int64(ms.NumGC-s.ms0.NumGC))
	s.tr.Add(trace.CountGCPauseNs, int64(ms.PauseTotalNs-s.ms0.PauseTotalNs))
	s.tr.Add(trace.CountAllocBytes, int64(ms.TotalAlloc-s.ms0.TotalAlloc))
	s.tr.Add(trace.CountMallocs, int64(ms.Mallocs-s.ms0.Mallocs))
	return s.tr.WriteFile(s.path)
}

// span opens a span under the root; the returned func closes it.
func (s *recording) span(name string) func() {
	if s == nil {
		return func() {}
	}
	i := s.tr.Start(name, s.root, trace.NoID)
	return func() { s.tr.End(i) }
}

// enter opens a span around a call that fans work out to worker
// goroutines, and makes it the scope their store and trial spans nest
// under; the returned func closes it and restores the root scope. Only
// traced runs call it.
func (s *recording) enter(name string) (int, func()) {
	i := s.tr.Start(name, s.root, trace.NoID)
	s.tr.SetScope(i)
	return i, func() {
		s.tr.End(i)
		s.tr.SetScope(s.root)
	}
}

// openStore opens a store DSN as the CLI does, timing the open and
// wrapping the backend in a timing decorator when traced.
func (s *recording) openStore(dsn string) (store.Backend, error) {
	end := s.span(trace.StoreOpen)
	st, err := store.OpenDSN(dsn)
	end()
	if err != nil || s == nil {
		return st, err
	}
	return &timedStore{Backend: st, tr: s.tr}, nil
}

// render writes a rendered report to w, timing the render and counting
// its bytes when traced.
func (s *recording) render(w io.Writer, render func(io.Writer) error) error {
	if s == nil {
		return render(w)
	}
	cw := &countingWriter{w: w}
	end := s.span(trace.Render)
	err := render(cw)
	end()
	s.tr.Add(trace.CountRenderB, cw.n)
	return err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// The synthetic pipelines of the experiment-resume workload: each side
// draws independent Gaussian noise from the trial's seed under its own
// label. Means 0.005 apart under noise of SD 0.02 per side make a small
// true effect (P(A>B) ≈ 0.57), so the bootstrap does real work on every
// batch while the trial layer costs next to nothing.
const (
	meanA, meanB, noiseSD = 0.75, 0.745, 0.02
	experimentPipelineID  = "e2ebench/experiment-resume/v1"
)

func syntheticSide(label string, mean float64) varbench.TrialFunc {
	return func(t varbench.Trial) (float64, error) {
		return xrand.New(t.Seed).Split(label).Normal(mean, noiseSD), nil
	}
}

// runExperiment is the experiment-resume workload's program.
func runExperiment(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("runner experiment", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "experiment seed")
	maxRuns := fs.Int("max-runs", 0, "pairs to collect (required)")
	par := fs.Int("p", 0, "collection worker-pool size (0 = GOMAXPROCS)")
	dsn := fs.String("store", "", "trial-store DSN (required)")
	traceFile := fs.String("trace", "", "write spans to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxRuns <= 0 || *dsn == "" {
		return fmt.Errorf("experiment needs -max-runs and -store")
	}
	s := begin(*traceFile)
	st, err := s.openStore(*dsn)
	if err != nil {
		return err
	}
	defer st.Close()
	e := varbench.Experiment{
		ATrial:      syntheticSide("e2ebench/side-a", meanA),
		BTrial:      syntheticSide("e2ebench/side-b", meanB),
		MaxRuns:     *maxRuns,
		EarlyStop:   varbench.EarlyStopOff,
		Parallelism: *par,
		Store:       st,
		PipelineID:  experimentPipelineID,
	}
	varbench.WithSeed(*seed)(&e)
	var res *varbench.Result
	if s == nil {
		res, err = e.Run(ctx)
	} else {
		e.ATrial = timedTrial(s.tr, e.ATrial)
		e.BTrial = timedTrial(s.tr, e.BTrial)
		runSpan, end := s.enter(trace.CollectExperiment)
		e.Progress = func(p varbench.Progress) { s.tr.Mark(trace.CollectProgress, runSpan, int64(p.Pairs)) }
		res, err = e.Run(ctx)
		end()
	}
	if err != nil {
		return err
	}
	if err := s.render(w, func(w io.Writer) error { return res.Render(w, varbench.TextRenderer{}) }); err != nil {
		return err
	}
	end := s.span(trace.StoreClose)
	err = st.Close()
	end()
	if err != nil {
		return err
	}
	return s.finish()
}
