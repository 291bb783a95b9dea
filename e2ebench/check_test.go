package main

import (
	"fmt"
	"strings"
	"testing"
)

const goodVerdict = "P(A>B)=0.570 CI[0.568, 0.572] γ=0.75 n=100 (recommended ≥29): significant but not meaningful\n"

func TestCheckVerdict(t *testing.T) {
	if err := checkVerdict([]byte("table\n"+goodVerdict), 100); err != nil {
		t.Fatalf("good verdict rejected: %v", err)
	}
	for name, out := range map[string]string{
		"no verdict":      "dataset n\n",
		"wrong n":         strings.Replace(goodVerdict, "n=100", "n=99", 1),
		"pab outside ci":  strings.Replace(goodVerdict, "P(A>B)=0.570", "P(A>B)=0.580", 1),
		"unknown zone":    strings.Replace(goodVerdict, "significant but not meaningful", "probably fine", 1),
		"two verdicts":    goodVerdict + goodVerdict,
		"quarantined run": goodVerdict + "quarantined: 1 trial(s) — excluded from the analysis\n",
	} {
		if err := checkVerdict([]byte(out), 100); err == nil {
			t.Errorf("%s: accepted %q", name, out)
		}
	}
}

func TestCheckExperiment(t *testing.T) {
	good := goodVerdict + "runs: 200 (100 pairs), early-stopped: false\n"
	if err := checkExperiment([]byte(good), 100); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	for _, out := range []string{
		goodVerdict, // no runs line
		goodVerdict + "runs: 198 (99 pairs), early-stopped: false\n",
	} {
		if err := checkExperiment([]byte(out), 100); err == nil {
			t.Errorf("accepted %q", out)
		}
	}
}

func varianceReport(rows []string, k, realizations int) string {
	var b strings.Builder
	b.WriteString("== tiny — variance decomposition ==\nsource  mean  std\n------  ----  ---\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s  0.74  0.04\n", r)
	}
	fmt.Fprintf(&b, "μ̂=0.743  (K=%d, %d realizations, seed 7)\n", k, realizations)
	return b.String()
}

func TestCheckVarianceReport(t *testing.T) {
	rows := []string{"data-split", "weights-init", "joint"}
	if err := checkVarianceReport([]byte(varianceReport(rows, 4, 3)), rows, 4, 3); err != nil {
		t.Fatalf("good report rejected: %v", err)
	}
	for name, out := range map[string]string{
		"missing row":     varianceReport(rows[1:], 4, 3),
		"wrong K":         varianceReport(rows, 5, 3),
		"no table":        "μ̂=0.743  (K=4, 3 realizations, seed 7)\n",
		"quarantined run": varianceReport(rows, 4, 3) + "quarantined: 2 trial(s) — excluded from the analysis\n",
	} {
		if err := checkVarianceReport([]byte(out), rows, 4, 3); err == nil {
			t.Errorf("%s: accepted %q", name, out)
		}
	}
}
