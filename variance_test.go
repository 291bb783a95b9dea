package varbench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"varbench/internal/xrand"
)

// synthVariancePipeline builds a pure TrialFunc whose score is a sum of
// independent per-source contributions, each scaled so the sources have
// known, distinct variances. Probing one source while the rest stay fixed
// must then recover (approximately) that source's scale.
func synthVariancePipeline(scales map[Source]float64) TrialFunc {
	return func(t Trial) (float64, error) {
		v := 0.0
		// Iterate sources in fixed order: float addition is order-sensitive,
		// and map iteration order would make the pipeline impure.
		for _, src := range AllSources() {
			scale, ok := scales[src]
			if !ok {
				continue
			}
			// A deterministic uniform-ish value in [-0.5, 0.5) per seed.
			u := float64(xrand.New(t.SourceSeed(src)).Uint64()%100000)/100000.0 - 0.5
			v += scale * u
		}
		return v, nil
	}
}

func synthScales() map[Source]float64 {
	return map[Source]float64{
		VarDataSplit: 4.0,
		VarInit:      2.0,
		VarOrder:     1.0,
	}
}

func synthStudy(parallelism int) VarianceStudy {
	return VarianceStudy{
		Name:         "synthetic",
		Pipeline:     synthVariancePipeline(synthScales()),
		Sources:      []Source{VarDataSplit, VarInit, VarOrder},
		K:            16,
		Realizations: 4,
		Seed:         7,
		Parallelism:  parallelism,
	}
}

// TestVarianceStudyDeterministicAcrossParallelism pins the acceptance
// criterion: the report is bit-identical for worker counts {1, 4,
// GOMAXPROCS} at a fixed seed.
func TestVarianceStudyDeterministicAcrossParallelism(t *testing.T) {
	ctx := context.Background()
	ref, err := synthStudy(1).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{4, runtime.GOMAXPROCS(0)} {
		got, err := synthStudy(p).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Elapsed is wall-clock, the only legitimately varying field.
		got.Elapsed = ref.Elapsed
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("report differs between Parallelism=1 and %d", p)
		}
	}
}

func TestVarianceStudyRecoversKnownScales(t *testing.T) {
	rep, err := synthStudy(0).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sources) != 3 {
		t.Fatalf("want 3 source rows, got %d", len(rep.Sources))
	}
	// Stds must order by the known scales: data-split > init > order.
	if !(rep.Sources[0].Std > rep.Sources[1].Std && rep.Sources[1].Std > rep.Sources[2].Std) {
		t.Errorf("stds not ordered by scale: %v %v %v",
			rep.Sources[0].Std, rep.Sources[1].Std, rep.Sources[2].Std)
	}
	// Shares over the probed sources sum to 1.
	sum := 0.0
	for _, row := range rep.Sources {
		sum += row.Share
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("source shares sum to %v, want 1", sum)
	}
	// Independent additive sources: the joint variance is approximately the
	// sum of the individual variances, i.e. the joint share is near 1.
	if rep.Joint.Share < 0.4 || rep.Joint.Share > 1.8 {
		t.Errorf("joint share %v implausibly far from 1", rep.Joint.Share)
	}
	if rep.Joint.Source != JointLabel {
		t.Errorf("joint row labeled %q", rep.Joint.Source)
	}
	// MSE = Var + Bias² exactly, per row.
	for _, row := range rep.Rows() {
		d := row.Decomposition
		if math.Abs(d.MSE-(d.Var+d.Bias*d.Bias)) > 1e-12 {
			t.Errorf("%s: MSE %v != Var %v + Bias² %v", row.Source, d.MSE, d.Var, d.Bias*d.Bias)
		}
		if len(row.Curve.K) == 0 || row.Curve.K[len(row.Curve.K)-1] != 16 {
			t.Errorf("%s: curve does not reach K=16: %v", row.Source, row.Curve.K)
		}
		if len(row.Measures) != 4 || len(row.Measures[0]) != 16 {
			t.Errorf("%s: measures shape %dx%d, want 4x16",
				row.Source, len(row.Measures), len(row.Measures[0]))
		}
	}
	if rep.Elapsed <= 0 {
		t.Error("missing elapsed time")
	}
}

// TestVarianceStudyFixedSourcesStayFixed verifies the core protocol: while
// one source is probed, every other source's seed is constant within a
// realization, and the probed source's seed changes on every measure.
func TestVarianceStudyFixedSourcesStayFixed(t *testing.T) {
	study := VarianceStudy{
		// Encode the two seeds into one float — low digits VarInit, high
		// digits VarOrder — so the fixed/varied structure is checkable from
		// the measures alone and the pipeline stays pure.
		Pipeline: func(tr Trial) (float64, error) {
			return float64(tr.SourceSeed(VarInit)%1000) + float64(tr.SourceSeed(VarOrder)%1000)*1000, nil
		},
		Sources:      []Source{VarInit, VarOrder},
		K:            6,
		Realizations: 2,
		Seed:         3,
		Parallelism:  1,
	}
	rep, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Probing VarInit: the VarOrder contribution (the *1000 digits) must be
	// constant within each realization while the VarInit digits vary.
	initRow := rep.Sources[0]
	for r, row := range initRow.Measures {
		fixed := math.Trunc(row[0] / 1000)
		varied := make(map[float64]bool)
		for _, v := range row {
			if math.Trunc(v/1000) != fixed {
				t.Errorf("realization %d: fixed VarOrder seed changed while probing VarInit", r)
			}
			varied[math.Mod(v, 1000)] = true
		}
		if len(varied) < 2 {
			t.Errorf("realization %d: probed VarInit seed did not vary", r)
		}
	}
	// The joint row varies both.
	for r, row := range rep.Joint.Measures {
		hi := make(map[float64]bool)
		for _, v := range row {
			hi[math.Trunc(v/1000)] = true
		}
		if len(hi) < 2 {
			t.Errorf("joint realization %d: VarOrder did not vary", r)
		}
	}
}

func TestVarianceStudyValidation(t *testing.T) {
	pipe := synthVariancePipeline(synthScales())
	cases := []struct {
		name string
		s    VarianceStudy
		want string
	}{
		{"no pipeline", VarianceStudy{}, "needs a Pipeline"},
		{"k too small", VarianceStudy{Pipeline: pipe, K: 1}, "K must be"},
		{"negative k", VarianceStudy{Pipeline: pipe, K: -1}, "K must not be negative"},
		{"realizations too small", VarianceStudy{Pipeline: pipe, Realizations: 1}, "Realizations must be"},
		{"negative realizations", VarianceStudy{Pipeline: pipe, Realizations: -2}, "Realizations must not be negative"},
		{"negative parallelism", VarianceStudy{Pipeline: pipe, Parallelism: -1}, "Parallelism must not be negative"},
		{"duplicate source", VarianceStudy{Pipeline: pipe, Sources: []Source{VarInit, VarInit}}, "duplicate source"},
		{"numerical noise", VarianceStudy{Pipeline: pipe, Sources: []Source{VarNumericalNoise}}, "pseudo-source"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.s.Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestVarianceStudyDefaults(t *testing.T) {
	s, err := VarianceStudy{Pipeline: synthVariancePipeline(synthScales())}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if s.K != DefaultVarianceK || s.Realizations != DefaultVarianceRealizations {
		t.Errorf("defaults: K=%d R=%d", s.K, s.Realizations)
	}
	if !reflect.DeepEqual(s.Sources, LearningSources()) {
		t.Errorf("default sources %v", s.Sources)
	}
	if s.Seed != 1 {
		t.Errorf("default seed %d", s.Seed)
	}
	if s.Parallelism != runtime.GOMAXPROCS(0) {
		t.Errorf("default parallelism %d", s.Parallelism)
	}
}

func TestVarianceStudyPipelineErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	// Parallelism > 1: the failing cell cancels in-flight siblings, whose
	// cancellation errors must never mask the root cause.
	study := VarianceStudy{
		Pipeline:     func(Trial) (float64, error) { return 0, boom },
		Sources:      []Source{VarInit, VarOrder, VarDropout},
		K:            4,
		Realizations: 3,
		Parallelism:  4,
	}
	_, err := study.Run(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped pipeline error, got %v", err)
	}
	if strings.Contains(err.Error(), "canceled") {
		t.Errorf("sibling cancellation masked the root cause: %v", err)
	}
}

func TestVarianceStudyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := synthStudy(2).Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("want cancellation error, got %v", err)
	}
}

func TestSourceSetBridge(t *testing.T) {
	for _, c := range []struct {
		set  SourceSet
		want []Source
	}{
		{SetInit, []Source{VarInit}},
		{SetData, []Source{VarDataSplit}},
		{SetLearning, LearningSources()},
		{SetAll, AllSources()},
	} {
		got, err := ParseSources(string(c.set))
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s -> %v, %v; want %v", c.set, got, err, c.want)
		}
	}
	if _, err := ParseSources(string(SourceSet("nope"))); err == nil {
		t.Error("unknown set should error")
	}
}

func TestParseSources(t *testing.T) {
	got, err := ParseSources("init, data-order")
	if err != nil || !reflect.DeepEqual(got, []Source{VarInit, VarOrder}) {
		t.Errorf("ParseSources -> %v, %v", got, err)
	}
	// Sets expand and deduplicate against individual labels.
	got, err = ParseSources("weights-init,learning")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != VarInit || len(got) != len(LearningSources()) {
		t.Errorf("dedup expansion -> %v", got)
	}
	if _, err := ParseSources("bogus"); err == nil || !strings.Contains(err.Error(), "unknown source") {
		t.Errorf("unknown label: %v", err)
	}
	if _, err := ParseSources(" , "); err == nil || !strings.Contains(err.Error(), "empty source spec") {
		t.Errorf("empty spec: %v", err)
	}
	// The error lists valid names to type next.
	_, err = ParseSources("bogus")
	if !strings.Contains(err.Error(), string(SetLearning)) || !strings.Contains(err.Error(), string(VarDataSplit)) {
		t.Errorf("error should list valid names: %v", err)
	}
}

func TestVarianceReportRowsOrder(t *testing.T) {
	rep := &VarianceReport{
		Sources: []SourceVariance{{Source: "a"}, {Source: "b"}},
		Joint:   SourceVariance{Source: JointLabel},
	}
	rows := rep.Rows()
	want := []string{"a", "b", JointLabel}
	for i, r := range rows {
		if r.Source != want[i] {
			t.Fatalf("row %d = %q, want %q", i, r.Source, want[i])
		}
	}
}

func TestVarianceStudySeedSensitivity(t *testing.T) {
	a := synthStudy(1)
	b := synthStudy(1)
	b.Seed = 8
	ra, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ra.Sources[0].Measures) == fmt.Sprint(rb.Sources[0].Measures) {
		t.Error("different seeds produced identical measures")
	}
}
