// Command e2ebench is varbench's end-to-end benchmark. It runs one workload
// against the tree it was built from, checks every output, and prints the
// workload's metrics:
//
//	bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// run.sh builds the varbench CLI and this directory's programs into
// .bench_build/bin and then runs this command from the root of the tree.
// Load is a closed loop from one client: a round prepares fresh seeded
// inputs (untimed set-up), runs the measured programs one after another,
// and checks their outputs; the next round starts when the previous one
// ends, until S seconds have passed. The first round is a warm-up, checked
// but left out of the figures. With --trace 0 the rounds run the
// untraced varbench CLI (and the experiment runner) and the end-to-end
// metrics are printed; with --trace 1 untraced rounds alternate with rounds
// of traced twins that time every call into a layer's public functions, and
// the per-layer metrics are printed. --workload all runs every workload
// both ways. A human-readable table goes to stderr; the last line of stdout
// is one JSON object with the keys correct, attempted, failed and metrics.
// The exit code is 0 when every output check passed, 1 when one failed and
// 2 on a usage or set-up error. See README.md here for the workloads, the
// metrics and what each layer is predicted to move.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"varbench/internal/jsonx"
)

// Where run.sh puts the binaries, and where rounds keep their files;
// both are relative to the root of the tree and ignored by git.
const (
	binDir   = ".bench_build/bin"
	workRoot = ".bench_build/work"
)

// defaultWorkers is the collection worker count of every measured
// program. With one worker a round's wall time does not hang on whether
// the machine runs two of the program's threads at once, which on a shared
// host changes from minute to minute; --workers raises it, up to nproc,
// to look at scaling.
const defaultWorkers = 1

// runTimeout bounds a whole benchmark run, so a hung program is killed and
// reported as failed instead of stalling the caller.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := fs.Uint64("seed", 1, "workload seed: every input derives from it")
	seconds := fs.Int("seconds", 10, "how long to keep starting rounds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from untraced rounds; 1: per-layer metrics from traced rounds")
	workers := fs.Int("workers", defaultWorkers, "worker count of the measured programs (at most nproc)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := findWorkload(*name); w != nil {
		ws = []*workload{w}
	}
	switch {
	case len(ws) == 0:
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "e2ebench: --seconds must be at least 1")
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	case *workers < 1 || *workers > runtime.NumCPU():
		fmt.Fprintf(stderr, "e2ebench: --workers %d refused: want 1..nproc (%d), so measured programs never oversubscribe the machine\n",
			*workers, runtime.NumCPU())
		return 2
	}
	cfg, err := newConfig(*seed, *workers)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	modes := []bool{*traced == 1}
	if *name == "all" {
		modes = []bool{false, true}
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout*time.Duration(len(ws)*len(modes)))
	defer cancel()
	code := 0
	for _, w := range ws {
		for _, tr := range modes {
			res, err := measure(ctx, w, cfg, time.Duration(*seconds)*time.Second, tr)
			if err != nil {
				fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
				return 2
			}
			res.writeTable(stderr, w, cfg, tr)
			line, err := res.json(tr)
			if err != nil {
				fmt.Fprintln(stderr, "e2ebench:", err)
				return 2
			}
			fmt.Fprintf(stdout, "%s\n", line)
			if !res.correct() {
				code = 1
			}
		}
	}
	return code
}

// config is what every round of one benchmark run shares.
type config struct {
	seed    uint64
	workers int
	bin     string   // directory holding varbench and runner
	work    string   // directory under which rounds keep their files
	env     []string // environment of the measured programs
}

func newConfig(seed uint64, workers int) (*config, error) {
	bin, err := filepath.Abs(binDir)
	if err != nil {
		return nil, err
	}
	for _, prog := range []string{"varbench", "runner"} {
		if _, err := os.Stat(filepath.Join(bin, prog)); err != nil {
			return nil, fmt.Errorf("%s not built (run the benchmark through e2ebench/run.sh): %w", prog, err)
		}
	}
	return &config{
		seed:    seed,
		workers: workers,
		bin:     bin,
		work:    workRoot,
		// GOMAXPROCS caps the analysis worker pools too, which otherwise
		// default to every CPU.
		env: append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers)),
	}, nil
}

// measure runs closed-loop rounds of w for the given duration in a fresh
// work directory and summarizes them. The first round warms up the page
// cache and the file system: it is checked like every round but left out
// of the medians. Traced runs then alternate untraced and traced rounds,
// starting untraced, so trace overhead compares rounds of the same run.
func measure(ctx context.Context, w *workload, cfg *config, d time.Duration, traced bool) (*summary, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	sum := &summary{}
	deadline := time.Now().Add(d)
	for i := 0; ; i++ {
		dir := filepath.Join(work, fmt.Sprintf("round-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		r := w.round(ctx, cfg, dir, traced && i > 0 && i%2 == 0)
		r.warmup = i == 0
		if r.traced && r.err == nil {
			// Attribute before the round's span files are removed.
			var err error
			r.layers, err = r.layerValues()
			r.fail(err)
		}
		sum.add(r)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if ctx.Err() != nil || (time.Now().After(deadline) && i >= 1 && (!traced || i >= 2)) {
			break
		}
	}
	return sum, nil
}

// result is the JSON object on the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (s *summary) json(traced bool) ([]byte, error) {
	defs, values := endToEnd, s.endToEndValues()
	if traced {
		defs, values = perLayer, s.perLayerValues()
	}
	res := result{Correct: s.correct(), Attempted: s.attempted, Failed: s.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return jsonx.Marshal(res)
}

// writeTable prints the run's metrics for people: the end-to-end figures
// under the names each workload's users know them by, or the per-layer
// figures with the layers' shares of traced time.
func (s *summary) writeTable(w io.Writer, wl *workload, cfg *config, traced bool) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "e2ebench %s (%s): seed %d, %d rounds after a warm-up round, closed loop of 1 client, workers %d, nproc %d, GOMAXPROCS %d, %s\n",
		wl.name, mode, cfg.seed, len(s.rounds)-1, cfg.workers, runtime.NumCPU(), cfg.workers, runtime.Version())
	row := func(name string, v float64, unit string) { fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, v, unit) }
	if !traced {
		for _, m := range s.userMetrics(wl) {
			row(m.name, m.value, m.unit)
		}
	} else {
		values := s.perLayerValues()
		for _, d := range perLayer {
			row(d.name, values[d.name], d.unit)
		}
	}
	row("fail_ratio", s.failRatio(), fmt.Sprintf("ratio (%d of %d %s failed)", s.failed, s.attempted, wl.opName))
	for _, msg := range s.errors {
		fmt.Fprintf(w, "  FAILED: %s\n", msg)
	}
}

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of untraced runs, one value per workload. The
// operations ops_per_s counts are the workload's: trials, or score pairs
// analysed, or experiment pairs resolved.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// median returns the median of xs (0 when empty); it sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
