// Sample-size: power analysis for the probability-of-outperforming test.
// Prints the Noether sample-size curve (Figure C.1) and then *verifies* the
// recommendation by simulation: at the recommended N=29 pairs and a true
// effect P(A>B)=0.75, the test should detect at roughly the designed power.
//
// This is the curve behind varbench.Experiment's defaults: MaxRuns defaults
// to Noether's N for the chosen γ, and the default stopping rule collects
// exactly that N, fixed before the first trial.
//
// Run: go run ./examples/sample-size
package main

import (
	"fmt"
	"log"
	"os"

	"varbench"
	"varbench/internal/report"
	"varbench/internal/simulate"
	"varbench/internal/xrand"
)

func main() {
	tb := &report.Table{
		Title:   "Minimal paired sample size for the P(A>B) test (α=β=0.05)",
		Headers: []string{"γ (effect to detect)", "min N"},
	}
	for _, g := range []float64{0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95} {
		tb.AddRow(g, varbench.SampleSize(g))
	}
	if err := tb.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Simulation check of the γ=0.75 recommendation.
	const trueP = 0.75
	n := varbench.SampleSize(trueP)
	model := simulate.Model{Sigma2: 0.0004}
	cfg := simulate.Config{NSim: 400}
	pts, err := simulate.SampleSizeSweep(cfg, model, trueP, []int{n / 2, n, n * 2}, xrand.New(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated detection rate at true P(A>B)=%.2f:\n", trueP)
	for _, pt := range pts {
		fmt.Printf("  N=%3.0f  prob-outperform: %.2f   paired-t: %.2f\n",
			pt.X, pt.Rates["prob-outperform"], pt.Rates["paired-t"])
	}
	fmt.Printf("\nNoether's N=%d is calibrated for ~95%% power against the\n", n)
	fmt.Println("alternative P(A>B)=γ while controlling false positives at 5%.")
}
