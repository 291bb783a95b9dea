package main

import (
	"bytes"
	"fmt"
	"slices"
)

// summary accumulates the rounds of one benchmark run.
type summary struct {
	rounds            []round
	attempted, failed int      // operations
	errors            []string // one per failed round
	reference         [][]byte // stdout of the first passing round, per program
}

// add records a finished round. A passing round whose stdout differs from
// the first passing round's fails too: rounds of one run, traced or not,
// run the same inputs through the same code. A failed round counts all of
// its operations as failed.
func (s *summary) add(r round) {
	if r.err == nil {
		outs := make([][]byte, len(r.procs))
		for i, p := range r.procs {
			outs[i] = p.stdout
		}
		if s.reference == nil {
			s.reference = outs
		} else if !slices.EqualFunc(s.reference, outs, bytes.Equal) {
			r.err = fmt.Errorf("stdout differs from the first passing round's")
		}
	}
	s.attempted += r.ops
	if r.err != nil {
		s.failed += r.ops
		s.errors = append(s.errors, fmt.Sprintf("round %d: %v", len(s.rounds), r.err))
	}
	s.rounds = append(s.rounds, r)
}

func (s *summary) correct() bool { return s.failed == 0 && s.attempted > 0 }

// failRatio is failed over attempted operations.
func (s *summary) failRatio() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// passing returns the measured rounds, traced or not, that passed every
// check.
func (s *summary) passing(traced bool) []*round {
	var out []*round
	for i := range s.rounds {
		if r := &s.rounds[i]; r.err == nil && !r.warmup && r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// medianOf is the median of f over rounds.
func medianOf(rounds []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

const mib = 1 << 20

// endToEndValues computes the untraced rounds' metrics, each the median
// over rounds.
func (s *summary) endToEndValues() map[string]float64 {
	rs := s.passing(false)
	return map[string]float64{
		"ops_per_s":  medianOf(rs, func(r *round) float64 { return float64(r.ops) / r.wall().Seconds() }),
		"cpu_s":      medianOf(rs, func(r *round) float64 { return r.cpu().Seconds() }),
		"max_rss_mb": medianOf(rs, func(r *round) float64 { return float64(r.rssKB()) / 1024 }),
		"setup_s":    medianOf(rs, func(r *round) float64 { return r.setup.Seconds() }),
	}
}

type userMetric struct {
	name  string
	value float64
	unit  string
}

// userMetrics are the end-to-end metrics under the names a user of each
// workload knows them by: the throughput as the workload counts it, the
// wall time of each program, and the store size where there is one.
func (s *summary) userMetrics(wl *workload) []userMetric {
	e := s.endToEndValues()
	rs := s.passing(false)
	out := []userMetric{{"ops_per_s", e["ops_per_s"], "1/s (" + wl.opName + ")"}}
	if wl.rateName != "" {
		out = append(out, userMetric{wl.rateName, e["ops_per_s"], "1/s"})
	}
	if len(rs) > 0 {
		for i, p := range rs[0].procs {
			wall := medianOf(rs, func(r *round) float64 { return r.procs[i].wall.Seconds() })
			out = append(out, userMetric{p.name + "_s", wall, "s"})
			if p.name == "watch" {
				out = append(out, userMetric{"watch_pairs_per_s", float64(scorePairs) / wall, "1/s"})
			}
		}
	}
	for _, d := range endToEnd[1:] { // after ops_per_s
		out = append(out, userMetric{d.name, e[d.name], d.unit})
	}
	if len(rs) > 0 && rs[0].storeBytes > 0 {
		out = append(out, userMetric{"store_mb", medianOf(rs, func(r *round) float64 { return float64(r.storeBytes) / mib }), "MiB"})
	}
	return out
}
