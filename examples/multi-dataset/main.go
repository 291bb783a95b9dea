// Multi-dataset: accumulate evidence that one algorithm beats another
// across several benchmarks (Section 6 of the paper) with one declarative
// Experiment. Each dataset gets the recommended P(A>B) test at a
// Bonferroni-adjusted meaningfulness threshold; the verdict requires a
// meaningful win on every dataset (Dror et al. 2017), and Demšar's Wilcoxon
// over per-dataset means is reported alongside.
//
// The contenders here are "train with data augmentation" (A) versus
// "no augmentation" (B) on three classification case studies.
//
// Run: go run ./examples/multi-dataset [-k pairs] [-p workers]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"varbench"
	"varbench/internal/augment"
	"varbench/internal/casestudy"
	"varbench/internal/nn"
	"varbench/internal/xrand"
)

func main() {
	k := flag.Int("k", 12, "max paired measurements per algorithm per dataset")
	workers := flag.Int("p", 0, "collection parallelism (0 = GOMAXPROCS)")
	flag.Parse()

	taskNames := []string{"cifar10-vgg11", "sst2-bert", "rte-bert"}
	var datasets []varbench.Dataset

	for _, name := range taskNames {
		task, err := casestudy.ByName(name, 20210301)
		if err != nil {
			log.Fatal(err)
		}
		run := func(withAug bool) varbench.RunFunc {
			return func(seed uint64) (float64, error) {
				streams := xrand.NewStreams(seed)
				split, err := task.Split(streams.Get(xrand.VarDataSplit))
				if err != nil {
					return 0, err
				}
				cfg, err := task.Build(task.Defaults())
				if err != nil {
					return 0, err
				}
				if withAug {
					// Ensure augmentation is on, adding it where the task
					// doesn't use it by default.
					if cfg.Augment == nil {
						cfg.Augment = augment.Jitter{Std: 0.05}
					}
				} else {
					cfg.Augment = nil
				}
				res, err := nn.Train(cfg, split.Train, streams)
				if err != nil {
					return 0, err
				}
				return task.Measure(res.Model, split.Test), nil
			}
		}
		datasets = append(datasets, varbench.Dataset{Name: name, A: run(true), B: run(false)})
	}

	exp := varbench.Experiment{
		Name:        "augmentation vs none",
		Datasets:    datasets,
		Seed:        77,
		MaxRuns:     *k,
		Parallelism: *workers,
		// Progress goes to stderr: the datasets' events interleave in
		// completion order, so stdout keeps only the deterministic report.
		Progress: func(p varbench.Progress) {
			fmt.Fprintf(os.Stderr, "%s: %d/%d pairs\n", p.Dataset, p.Pairs, p.MaxRuns)
		},
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := res.Render(os.Stdout, varbench.TextRenderer{}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nNote the adjusted γ per dataset: with 3 simultaneous comparisons the")
	fmt.Println("meaningfulness bar rises, exactly as Section 6 recommends.")
}
