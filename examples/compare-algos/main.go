// Compare-algos: a realistic model comparison under a limited compute
// budget, following Section 3.3: hyperparameters are optimized *once* per
// algorithm (the biased estimator), then the Experiment re-randomizes every
// other source of variation (FixHOptEst(k, All)) — the protocol the paper
// shows is ~51x cheaper than the ideal estimator yet nearly as reliable,
// provided the final decision accounts for variance. Measurement collection
// runs across a worker pool and stops at Noether's recommended sample size
// or at the -k cap, whichever comes first.
//
// The two contenders are MHC binding predictors with different capacities:
// a 32-unit hidden layer versus an 8-unit one.
//
// Run: go run ./examples/compare-algos [-k pairs] [-p workers]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"varbench"
	"varbench/internal/casestudy"
	"varbench/internal/data"
	"varbench/internal/hpo"
	"varbench/internal/pipeline"
	"varbench/internal/xrand"
)

func main() {
	k := flag.Int("k", 29, "max paired measurements per algorithm")
	budget := flag.Int("budget", 12, "HPO trial budget per algorithm")
	workers := flag.Int("p", 0, "collection parallelism (0 = GOMAXPROCS)")
	flag.Parse()

	task, err := casestudy.ByName("mhc-mlp", 20210301)
	if err != nil {
		log.Fatal(err)
	}

	// Constrain the hidden-layer search around each contender's capacity.
	tune := func(name string, lo, hi float64, seed uint64) (hpo.Params, error) {
		space := hpo.Space{
			{Name: "hidden", Lo: lo, Hi: hi},
			{Name: "weight_decay", Lo: 1e-6, Hi: 1, Log: true},
		}
		streams := xrand.NewStreams(seed)
		split, err := task.Split(streams.Get(xrand.VarDataSplit))
		if err != nil {
			return nil, err
		}
		objective := func(p hpo.Params) float64 {
			perf, err := pipeline.TrainEval(task, p, split.Train, split.Valid, streams.Clone())
			if err != nil {
				return 1
			}
			return 1 - perf
		}
		hist, err := hpo.RandomSearch{}.Optimize(objective, space, *budget,
			streams.Get(xrand.VarHOpt))
		if err != nil {
			return nil, err
		}
		best, _ := hist.Best()
		fmt.Printf("%s: tuned hyperparameters %v (valid error %.4f)\n",
			name, best.Params, best.Value)
		return best.Params, nil
	}

	paramsBig, err := tune("wide-MLP (24..64 hidden)", 24, 64, 11)
	if err != nil {
		log.Fatal(err)
	}
	paramsSmall, err := tune("narrow-MLP (4..12 hidden)", 4, 12, 11)
	if err != nil {
		log.Fatal(err)
	}

	// FixHOptEst(k, All): measurements with every ξO source fresh, the
	// tuned hyperparameters fixed. Pairing via shared trial seeds.
	measure := func(p hpo.Params) varbench.RunFunc {
		return func(seed uint64) (float64, error) {
			streams := xrand.NewStreams(seed)
			split, err := task.Split(streams.Get(xrand.VarDataSplit))
			if err != nil {
				return 0, err
			}
			stv, err := data.Concat(split.Train, split.Valid)
			if err != nil {
				return 0, err
			}
			return pipeline.TrainEval(task, p, stv, split.Test, streams)
		}
	}

	fmt.Printf("\ncollecting up to %d paired FixHOptEst(All) measurements...\n", *k)
	exp := varbench.Experiment{
		Name:        "wide vs narrow MLP on MHC binding",
		A:           measure(paramsBig),
		B:           measure(paramsSmall),
		Seed:        33,
		MaxRuns:     *k,
		Parallelism: *workers,
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	d := res.Datasets[0]
	fmt.Printf("wide:   %+v\n", varbench.Summarize(d.ScoresA))
	fmt.Printf("narrow: %+v\n\n", varbench.Summarize(d.ScoresB))
	if err := res.Render(os.Stdout, varbench.TextRenderer{}); err != nil {
		log.Fatal(err)
	}
	if res.EarlyStopped {
		fmt.Printf("early stop (%s) saved %d paired runs\n", res.StopReason, *k-res.Pairs)
	}
}
