// Variance study: measure how much each source of variation (data split,
// augmentation, data order, weight init, dropout) contributes to the spread
// of a benchmark's results — a miniature of the paper's Figure 1 on one case
// study, through the public VarianceStudy API.
//
// One declarative spec replaces the per-source Experiment loop: the study
// probes every source one at a time (fresh seed per measure, everything else
// fixed), adds a joint-randomization row, and summarizes shares, SE-vs-k
// curves and the bias/Var/ρ/MSE decomposition into one VarianceReport. The
// (source × realization) cells fan out across a worker pool and the report
// is bit-identical at any -p.
//
// With -store DIR the study is durable and resumable: every completed
// measure is recorded in the store under DIR as soon as it exists, so a
// killed run (Ctrl-C, OOM, preemption) reuses all completed work on rerun
// instead of recomputing it — and a later study with a bigger -k or a
// subset of the sources shares the recorded cells too.
//
// Run: go run ./examples/variance-study [-task name] [-k measures] [-r realizations] [-p workers] [-store dir]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"varbench"
	"varbench/internal/casestudy"
	"varbench/internal/pipeline"
	"varbench/internal/xrand"
	"varbench/store"
)

func main() {
	taskName := flag.String("task", "rte-bert", "case study name")
	k := flag.Int("k", 6, "measures per source per realization (paper: 200)")
	realizations := flag.Int("r", 3, "independent realizations (paper: 20)")
	workers := flag.Int("p", 0, "worker-pool size (0 = GOMAXPROCS)")
	curves := flag.Bool("curves", false, "render SE-vs-k curves")
	storeDir := flag.String("store", "", "trial store DSN: a directory, seglog:DIR or mem:; empty = recompute everything")
	flag.Parse()

	task, err := casestudy.ByName(*taskName, 20210301)
	if err != nil {
		log.Fatal(err)
	}

	// One full pipeline run under the trial's per-source seed assignment:
	// sources the study varies get fresh seeds, the rest stay fixed. Using
	// fixed default hyperparameters is the FixHOptEst regime (O(k+T)
	// trainings); rerunning HPO per measure would be the ideal estimator.
	params := task.Defaults()
	runTrial := func(t varbench.Trial) (float64, error) {
		streams := xrand.NewStreams(0)
		for _, v := range xrand.AllVars() {
			streams.Reseed(v, t.SourceSeed(varbench.Source(v)))
		}
		return pipeline.RunWithParams(task, params, streams)
	}

	// Probe the task's own ξO sources (the numerical-noise pseudo-source has
	// no seed stream; `varbench fig1` covers it with the internal protocol).
	var probe []varbench.Source
	for _, v := range task.Sources() {
		if v != xrand.VarNumericalNoise {
			probe = append(probe, varbench.Source(v))
		}
	}

	study := varbench.VarianceStudy{
		Name:         task.Name(),
		Pipeline:     runTrial,
		Sources:      probe,
		K:            *k,
		Realizations: *realizations,
		Seed:         7,
		Parallelism:  *workers,
	}
	if *storeDir != "" {
		st, err := store.OpenDSN(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		study.Store = st
		// The store cannot hash pipeline code: the ID must change whenever
		// the measurement itself would (here, when the task changes).
		study.PipelineID = "variance-study-example/" + task.Name()
		defer func() {
			hits, misses := st.Stats()
			fmt.Fprintf(os.Stderr, "store: %d measure(s) reused, %d computed\n", hits, misses)
		}()
	}
	rep, err := study.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.Render(os.Stdout, varbench.VarianceTextRenderer{Curves: *curves}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading the table: if any row's share rivals the data-split row,")
	fmt.Println("ignoring that source in your benchmark makes its conclusions unreliable.")
	fmt.Println("The joint row varies every probed source at once — the paper's")
	fmt.Println("recommendation — and its share ≈ the sum when sources are independent.")
}
