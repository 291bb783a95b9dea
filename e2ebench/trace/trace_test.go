package trace

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// Two collection workers run trials side by side under one Run span: the
// Run's self time is its duration minus the union of the trials, not minus
// their sum, which would double-count the overlap.
func TestSelfTimeSubtractsUnionOfOverlappingWorkers(t *testing.T) {
	tr := &Trace{Spans: []Span{
		{Name: CollectExperiment, Parent: -1, Start: 0, End: 100},
		{Name: Trial, ID: 0, Parent: 0, Start: 10, End: 60}, // worker 1
		{Name: Trial, ID: 1, Parent: 0, Start: 40, End: 90}, // worker 2, overlapping
		{Name: TrialTrain, ID: 1, Parent: 2, Start: 45, End: 85},
	}}
	got := tr.SelfTimes()
	want := []int64{
		100 - 80, // covered: [10,90)
		50,       // no children
		50 - 40,  // its train span
		40,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SelfTimes = %v, want %v", got, want)
	}
}

func TestUnionWithinClipsAndMerges(t *testing.T) {
	for _, tc := range []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}, {6, 8}}, 0, 10, 4},                  // disjoint
		{[][2]int64{{6, 9}, {2, 7}}, 0, 10, 7},                  // unsorted, overlapping
		{[][2]int64{{2, 8}, {3, 4}}, 0, 10, 6},                  // nested
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},                // clipped at both ends
		{[][2]int64{{4, 4}, {12, 15}}, 0, 10, 0},                // empty and outside
		{[][2]int64{{0, 5}, {5, 10}}, 0, 10, 10},                // touching
		{[][2]int64{{1, 2}, {1, 9}, {3, 4}, {8, 10}}, 0, 10, 9}, // chain
	} {
		if got := UnionWithin(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("UnionWithin(%v, %d, %d) = %d, want %d", tc.ivs, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 1: 1} {
		if got := Percentile(append([]float64(nil), xs...), p); got != want {
			t.Errorf("Percentile(p%v) = %v, want %v", p, got, want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile of no samples = %v, want 0", got)
	}
}

// A recording survives the round trip through its file, and two files
// merge with their parent links rebased.
func TestWriteReadAppend(t *testing.T) {
	tr := New()
	root := tr.Start(Main, -1, NoID)
	tr.SetScope(root)
	run := tr.Start(CollectExperiment, tr.Scope(), NoID)
	tr.Mark(CollectProgress, run, 8)
	tr.End(tr.Start(StorePut, run, 3))
	tr.End(run)
	tr.End(root)
	tr.Add(CountStoreHits, 2)
	path := filepath.Join(t.TempDir(), "spans")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Spans, tr.spans) || got.Counters[CountStoreHits] != 2 {
		t.Fatalf("read back %+v, want spans %+v and 2 hits", got, tr.spans)
	}
	got.Append(got)
	if n := len(got.Spans); n != 8 || got.Spans[5].Parent != 4 || got.Spans[4].Parent != -1 {
		t.Fatalf("appended spans %+v: parents not rebased", got.Spans)
	}
	if got.Counters[CountStoreHits] != 4 {
		t.Fatalf("appended counters %v, want 4 hits", got.Counters)
	}
}

// Collection workers record spans and counters from several goroutines at
// once; run under -race.
func TestTracerConcurrentUse(t *testing.T) {
	tr := New()
	run := tr.Start(CollectExperiment, -1, NoID)
	tr.SetScope(run)
	const workers, calls = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				tr.End(tr.Start(StoreGet, tr.Scope(), int64(i)))
				tr.Add(CountStoreHits, 1)
			}
		}()
	}
	wg.Wait()
	tr.End(run)
	if n := len(tr.spans); n != 1+workers*calls {
		t.Fatalf("%d spans, want %d", n, 1+workers*calls)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Fatalf("span %+v never ended", s)
		}
	}
	if got := tr.counters[CountStoreHits]; got != workers*calls {
		t.Fatalf("%d hits, want %d", got, workers*calls)
	}
}
