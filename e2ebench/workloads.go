package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"varbench/internal/casestudy"
	"varbench/internal/estimator"
	"varbench/internal/experiments"
	"varbench/internal/xrand"
	"varbench/store"
)

// Workload sizes: a round takes one to three seconds here, so a 10-second
// run holds three to eight rounds after its warm-up and its medians shrug
// off a slow one, while a set of ten runs stays short next to the swings in
// speed of a shared machine.
const (
	varianceK            = 10
	varianceRealizations = 10
	scorePairs           = 50_000
	experimentPairs      = 10_000
)

// A workload is one set of seeded inputs and the programs run on them.
type workload struct {
	name   string
	why    string
	opName string // what ops_per_s counts
	// rateName is what the workload's users call ops_per_s, if anything.
	rateName string
	// round prepares fresh inputs in dir, runs the measured programs once
	// and checks their outputs.
	round func(ctx context.Context, cfg *config, dir string, traced bool) round
}

var workloads = []*workload{
	{
		name:     "variance-tiny",
		why:      "a cold variance study: trial training is nearly all of the time, the store sees one small write per trial",
		opName:   "trials",
		rateName: "trials_per_s",
		round:    varianceRound,
	},
	{
		name:   "score-log",
		why:    "a paired-score log through watch then compare: no trials, so ingest and both bootstrap engines dominate",
		opName: "pairs analysed",
		round:  scoreLogRound,
	},
	{
		name:     "experiment-resume",
		why:      "Experiment.Run resuming from a half-filled seglog store on near-free pipelines: collection, cache and store dominate",
		opName:   "pairs",
		rateName: "pairs_per_s",
		round:    experimentRound,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// A round is one closed-loop iteration: set-up, the measured program runs
// and the output check.
type round struct {
	setup  time.Duration
	procs  []proc // the measured program runs, in order
	ops    int    // operations the round attempted
	err    error  // the first exit or output-check failure
	traced bool
	warmup bool // checked, but left out of the medians

	traces     []string           // span files of a traced round
	layers     map[string]float64 // per-layer metrics of a passing traced round
	storeBytes int64              // bytes in the store directory after the run
	storeCells int                // cells a reopened store holds
}

// A proc is one finished program run.
type proc struct {
	name   string // the subcommand: variance, watch, compare or experiment
	stdout []byte
	wall   time.Duration
	cpu    time.Duration // user + system
	rssKB  int64         // peak resident set
	err    error         // start failure, non-zero exit or kill
}

// wall, cpu and rssKB aggregate the round's measured programs: they run one
// after another, so times add and the peak is the largest one.
func (r *round) wall() (t time.Duration) {
	for _, p := range r.procs {
		t += p.wall
	}
	return t
}

func (r *round) cpu() (t time.Duration) {
	for _, p := range r.procs {
		t += p.cpu
	}
	return t
}

func (r *round) rssKB() (kb int64) {
	for _, p := range r.procs {
		kb = max(kb, p.rssKB)
	}
	return kb
}

// exec runs one program to completion and records it in the round unless
// the round has already failed. It reports whether the program exited 0.
func (r *round) exec(ctx context.Context, cfg *config, prog string, args ...string) bool {
	if r.err != nil {
		return false
	}
	p := runProc(ctx, cfg, prog, args...)
	r.procs = append(r.procs, p)
	if p.err != nil {
		r.fail(fmt.Errorf("%s %s: %w", prog, strings.Join(args, " "), p.err))
	}
	return p.err == nil
}

// fail records the round's first failure.
func (r *round) fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// runProc starts prog from cfg.bin and waits for it.
func runProc(ctx context.Context, cfg *config, prog string, args ...string) proc {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, filepath.Join(cfg.bin, prog), args...)
	cmd.Env = cfg.env
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	lowerPeakRSS()
	start := time.Now()
	err := cmd.Run()
	p := proc{name: args[0], stdout: stdout.Bytes(), wall: time.Since(start), err: err}
	if ps := cmd.ProcessState; ps != nil {
		p.cpu = ps.UserTime() + ps.SystemTime()
		p.rssKB = maxRSSKB(ps)
	}
	if err != nil {
		if msg := strings.TrimSpace(stderr.String()); msg != "" {
			p.err = fmt.Errorf("%w: %s", err, lastLine(msg))
		}
	}
	return p
}

func lastLine(s string) string {
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// seedOf derives one input's seed from the workload seed by label.
func seedOf(cfg *config, label string) uint64 {
	return xrand.New(cfg.seed).Split(label).Uint64()
}

func u64(v uint64) string { return strconv.FormatUint(v, 10) }

// varianceSources are the report rows `varbench variance -task tiny`
// prints: the task's own sources minus the numerical-noise pseudo-source,
// then the joint row.
func varianceSources() []string {
	var rows []string
	for _, v := range casestudy.Tiny(experiments.StructSeed).Sources() {
		if v != estimator.NumericalNoise {
			rows = append(rows, string(v))
		}
	}
	return append(rows, "joint")
}

// varianceRound: `varbench variance -task tiny` into a fresh seglog store.
func varianceRound(ctx context.Context, cfg *config, dir string, traced bool) round {
	rows := varianceSources()
	r := round{ops: len(rows) * varianceK * varianceRealizations, traced: traced}
	storeDir := filepath.Join(dir, "store")
	start := time.Now()
	r.fail(createStore(storeDir))
	r.setup = time.Since(start)
	args := []string{
		"-k", strconv.Itoa(varianceK), "-realizations", strconv.Itoa(varianceRealizations),
		"-p", strconv.Itoa(cfg.workers), "-seed", u64(seedOf(cfg, "variance-tiny/study")),
		"-store", "seglog:" + storeDir,
	}
	if traced {
		r.traces = []string{filepath.Join(dir, "variance.trace")}
		r.exec(ctx, cfg, "runner", append([]string{"variance", "-trace", r.traces[0]}, args...)...)
	} else {
		r.exec(ctx, cfg, "varbench", append([]string{"variance", "-task", "tiny"}, args...)...)
	}
	if r.err == nil {
		r.fail(checkVarianceReport(r.procs[0].stdout, rows, varianceK, varianceRealizations))
	}
	r.inspectStore(storeDir, r.ops)
	return r
}

// scoreLogRound: a seeded paired-score log, through `varbench watch` and
// then `varbench compare` on its two columns.
func scoreLogRound(ctx context.Context, cfg *config, dir string, traced bool) round {
	r := round{ops: 2 * scorePairs, traced: traced}
	logFile, fileA, fileB := filepath.Join(dir, "scores.csv"), filepath.Join(dir, "a.csv"), filepath.Join(dir, "b.csv")
	start := time.Now()
	r.fail(writeScoreLog(seedOf(cfg, "score-log/scores"), scorePairs, logFile, fileA, fileB))
	r.setup = time.Since(start)
	seed := u64(seedOf(cfg, "score-log/bootstrap"))
	watch := []string{"watch", "-file", logFile, "-seed", seed}
	compare := []string{"compare", "-a", fileA, "-b", fileB, "-seed", seed}
	prog := "varbench"
	if traced {
		prog = "runner"
		r.traces = []string{filepath.Join(dir, "watch.trace"), filepath.Join(dir, "compare.trace")}
		watch = append(watch, "-trace", r.traces[0])
		compare = append(compare, "-trace", r.traces[1])
	}
	if r.exec(ctx, cfg, prog, watch...) {
		r.fail(checkVerdict(r.procs[0].stdout, scorePairs))
	}
	if r.exec(ctx, cfg, prog, compare...) {
		r.fail(checkVerdict(r.procs[1].stdout, scorePairs))
	}
	return r
}

// experimentRound: Experiment.Run to experimentPairs pairs on a store that
// an untimed run with the same seed filled with the first half.
func experimentRound(ctx context.Context, cfg *config, dir string, traced bool) round {
	r := round{ops: experimentPairs, traced: traced}
	dsn := "seglog:" + filepath.Join(dir, "store")
	args := []string{"experiment", "-seed", u64(seedOf(cfg, "experiment-resume/experiment")),
		"-p", strconv.Itoa(cfg.workers), "-store", dsn}
	start := time.Now()
	if fill := runProc(ctx, cfg, "runner", append(args, "-max-runs", strconv.Itoa(experimentPairs/2))...); fill.err != nil {
		r.fail(fmt.Errorf("filling the store: %w", fill.err))
	}
	r.setup = time.Since(start)
	args = append(args, "-max-runs", strconv.Itoa(experimentPairs))
	if traced {
		r.traces = []string{filepath.Join(dir, "experiment.trace")}
		args = append(args, "-trace", r.traces[0])
	}
	if r.exec(ctx, cfg, "runner", args...) {
		r.fail(checkExperiment(r.procs[0].stdout, experimentPairs))
	}
	r.inspectStore(filepath.Join(dir, "store"), 2*experimentPairs)
	return r
}

// createStore creates an empty seglog store, as a fresh -store directory
// is before its first run.
func createStore(dir string) error {
	st, err := store.OpenDSN("seglog:" + dir)
	if err != nil {
		return err
	}
	return st.Close()
}

// inspectStore measures the store a successful round left behind and
// checks that a reopened store holds wantTrials trial cells.
func (r *round) inspectStore(dir string, wantTrials int) {
	if r.err != nil {
		return
	}
	st, err := store.OpenDSN("seglog:" + dir)
	if err != nil {
		r.fail(fmt.Errorf("reopening the store: %w", err))
		return
	}
	trials, cells := st.CountPrefix("trial/"), st.Len()
	r.fail(st.Close())
	if trials != wantTrials {
		r.fail(fmt.Errorf("reopened store holds %d trial cells, want %d", trials, wantTrials))
	}
	r.storeCells = cells
	size, err := dirBytes(dir)
	r.fail(err)
	r.storeBytes = size
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// writeScoreLog writes n seeded score pairs as the `a,b` log watch reads
// and as the two one-column files compare reads. Each side draws its own
// Gaussian noise around means 0.005 apart: a small true effect.
func writeScoreLog(seed uint64, n int, logFile, fileA, fileB string) error {
	root := xrand.New(seed)
	ra, rb := root.Split("a"), root.Split("b")
	var pairs, colA, colB []byte
	for i := 0; i < n; i++ {
		lenA, lenB := len(colA), len(colB)
		colA = append(strconv.AppendFloat(colA, ra.Normal(0.75, 0.02), 'f', 6, 64), '\n')
		colB = append(strconv.AppendFloat(colB, rb.Normal(0.745, 0.02), 'f', 6, 64), '\n')
		pairs = append(pairs, colA[lenA:len(colA)-1]...)
		pairs = append(pairs, ',')
		pairs = append(pairs, colB[lenB:]...)
	}
	for _, f := range []struct {
		path string
		data []byte
	}{{logFile, pairs}, {fileA, colA}, {fileB, colB}} {
		if err := os.WriteFile(f.path, f.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
