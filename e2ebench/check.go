package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"varbench"
)

// The output checks pin structure and invariants, not bytes: later
// changes to the statistics may legitimately move every printed number.

var (
	verdictRE = regexp.MustCompile(`^P\(A>B\)=(\S+) CI\[(\S+), (\S+)\] γ=\S+ n=(\d+) \(recommended ≥\d+\): (.+)$`)
	runsRE    = regexp.MustCompile(`^runs: (\d+) \((\d+) pairs\), early-stopped: false$`)
	varMuRE   = regexp.MustCompile(`^μ̂=\S+  \(K=(\d+), (\d+) realizations, seed \d+\)$`)
)

// checkVerdict checks a compare/watch/experiment text report: exactly one
// verdict line, over n pairs, with CI lo ≤ P(A>B) ≤ CI hi and one of the
// three conclusions, and no quarantined trials.
func checkVerdict(out []byte, n int) error {
	found := false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "quarantined:") {
			return fmt.Errorf("report has quarantined trials: %q", line)
		}
		m := verdictRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if found {
			return fmt.Errorf("more than one verdict line")
		}
		found = true
		var v [3]float64
		for i := range v {
			f, err := strconv.ParseFloat(m[i+1], 64)
			if err != nil {
				return fmt.Errorf("verdict %q: %w", line, err)
			}
			v[i] = f
		}
		if pab, lo, hi := v[0], v[1], v[2]; !(lo <= pab && pab <= hi) {
			return fmt.Errorf("verdict %q: P(A>B) outside its CI", line)
		}
		if m[4] != strconv.Itoa(n) {
			return fmt.Errorf("verdict %q: n=%s, want %d", line, m[4], n)
		}
		switch varbench.Conclusion(m[5]) {
		case varbench.NotSignificant, varbench.SignificantNotMeaningful, varbench.SignificantAndMeaningful:
		default:
			return fmt.Errorf("verdict %q: unknown conclusion %q", line, m[5])
		}
	}
	if !found {
		return fmt.Errorf("no verdict line in %d bytes of output", len(out))
	}
	return nil
}

// checkExperiment checks the experiment runner's report: a verdict over
// exactly pairs pairs and the run count that implies.
func checkExperiment(out []byte, pairs int) error {
	if err := checkVerdict(out, pairs); err != nil {
		return err
	}
	for _, line := range strings.Split(string(out), "\n") {
		if m := runsRE.FindStringSubmatch(line); m != nil {
			if m[1] != strconv.Itoa(2*pairs) || m[2] != strconv.Itoa(pairs) {
				return fmt.Errorf("%q: want %d runs of %d pairs", line, 2*pairs, pairs)
			}
			return nil
		}
	}
	return fmt.Errorf("no runs line in the experiment report")
}

// checkVarianceReport checks a variance text report: one row per expected
// source, in order, ending with joint; the K and realization counts asked
// for; and no quarantined trials.
func checkVarianceReport(out []byte, rows []string, k, realizations int) error {
	lines := strings.Split(string(out), "\n")
	start := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "source ") && i+1 < len(lines) && strings.HasPrefix(lines[i+1], "---") {
			start = i + 2
			break
		}
	}
	if start < 0 {
		return fmt.Errorf("no variance table in %d bytes of output", len(out))
	}
	var got []string
	i := start
	for ; i < len(lines) && !varMuRE.MatchString(lines[i]); i++ {
		if fields := strings.Fields(lines[i]); len(fields) > 0 {
			got = append(got, fields[0])
		}
	}
	if strings.Join(got, ",") != strings.Join(rows, ",") {
		return fmt.Errorf("variance rows %v, want %v", got, rows)
	}
	if i == len(lines) {
		return fmt.Errorf("no μ̂ summary line")
	}
	m := varMuRE.FindStringSubmatch(lines[i])
	if m[1] != strconv.Itoa(k) || m[2] != strconv.Itoa(realizations) {
		return fmt.Errorf("%q: want K=%d, %d realizations", lines[i], k, realizations)
	}
	for _, line := range lines[i+1:] {
		if strings.HasPrefix(line, "quarantined:") {
			return fmt.Errorf("report has quarantined trials: %q", line)
		}
	}
	return nil
}
