// Package trace records the spans of one traced benchmark program and
// attributes its time to layers. A span is opened by the benchmark's own
// code around a call into one layer's public function; spans are kept in
// memory and written out once, when the program ends, so recording costs
// two clock reads and one append per call.
package trace

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. The traced programs open spans under these names and the
// benchmark's attribution reads them back; the prefix before the first dot
// names the layer.
const (
	Main = "main" // the traced program's own work: flag parsing, file reads, glue

	Trial        = "trial" // one TrialFunc invocation
	TrialSplit   = "trial.split"
	TrialTrain   = "trial.train"
	TrialMeasure = "trial.measure"

	CollectExperiment = "collect.experiment" // Experiment.Run
	CollectVariance   = "collect.variance"   // VarianceStudy.Run
	CollectProgress   = "collect.progress"   // zero-length mark at each Progress callback

	StoreOpen    = "store.open"
	StoreGet     = "store.get"
	StoreGetJSON = "store.getjson"
	StorePut     = "store.put"
	StorePutJSON = "store.putjson"
	StoreFlush   = "store.flush"
	StoreClose   = "store.close"

	AnalysisExtend  = "analysis.extend"  // Stream.Extend
	AnalysisResult  = "analysis.result"  // Stream.Result
	AnalysisAnalyze = "analysis.analyze" // varbench.Analyze

	IngestFeed  = "ingest.feed"  // LineTailer.Feed, including the parses it drives
	IngestParse = "ingest.parse" // ParseScorePair

	Render = "render"
)

// Counter names recorded next to the spans.
const (
	CountStoreHits    = "store.get.hits"
	CountExtendCells  = "analysis.extend.cells"  // pairs extended × bootstrap resamples
	CountAnalyzeCells = "analysis.analyze.cells" // pairs analysed × bootstrap resamples
	CountBadLines     = "ingest.bad_lines"
	CountRenderB      = "render.bytes"
	CountGC           = "gc.count"
	CountGCPauseNs    = "gc.pause_ns"
	CountAllocBytes   = "mem.alloc_bytes"
	CountMallocs      = "mem.mallocs"
)

// NoID marks a span that belongs to no single trial or pair.
const NoID = -1

// A Span is one timed call. Start and End are nanoseconds since the
// recording Tracer was created; Parent indexes the enclosing span in the
// same trace (-1 for a root); spans of one trial or pair share ID.
type Span struct {
	Name       string
	ID         int64
	Parent     int
	Start, End int64
}

// A Tracer records spans from any number of goroutines.
type Tracer struct {
	t0    time.Time
	scope atomic.Int64 // span index that encloses calls made from worker goroutines

	mu       sync.Mutex
	spans    []Span
	counters map[string]int64
}

// New starts a recording; span times are relative to this call.
func New() *Tracer {
	t := &Tracer{t0: time.Now(), counters: make(map[string]int64)}
	t.scope.Store(-1)
	return t
}

// Start opens a span and returns its index for End.
func (t *Tracer) Start(name string, parent int, id int64) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// End closes the span Start returned.
func (t *Tracer) End(i int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
}

// Mark records a zero-length span: an event such as a Progress callback.
func (t *Tracer) Mark(name string, parent int, id int64) {
	t.End(t.Start(name, parent, id))
}

// Add increments a named counter.
func (t *Tracer) Add(counter string, delta int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[counter] += delta
}

// SetScope names the span that encloses calls the program cannot see the
// caller of, such as store operations issued by a collection worker pool;
// Scope returns it (-1 when none is open).
func (t *Tracer) SetScope(i int) { t.scope.Store(int64(i)) }

// Scope returns the span index set by SetScope.
func (t *Tracer) Scope() int { return int(t.scope.Load()) }

// WriteFile writes the recording as text, one record per line:
//
//	span NAME ID PARENT START END
//	count NAME VALUE
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var line []byte
	for _, s := range t.spans {
		line = append(line[:0], "span "...)
		line = append(line, s.Name...)
		for _, v := range [...]int64{s.ID, int64(s.Parent), s.Start, s.End} {
			line = append(line, ' ')
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, '\n')
		w.Write(line) // a write error sticks in w and surfaces at Flush
	}
	names := make([]string, 0, len(t.counters))
	for name := range t.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "count %s %d\n", name, t.counters[name])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// A Trace is a recording read back for analysis.
type Trace struct {
	Spans    []Span
	Counters map[string]int64
}

// ReadFile parses a file written by Tracer.WriteFile.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr := &Trace{Counters: make(map[string]int64)}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		bad := func() (*Trace, error) { return nil, fmt.Errorf("%s:%d: malformed record %q", path, n, sc.Text()) }
		var nums []int64
		for _, s := range fields[min(2, len(fields)):] {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return bad()
			}
			nums = append(nums, v)
		}
		switch {
		case len(fields) == 6 && fields[0] == "span":
			if nums[1] >= int64(len(tr.Spans)) || nums[3] < nums[2] {
				return bad() // parents precede children; ends follow starts
			}
			tr.Spans = append(tr.Spans, Span{Name: fields[1], ID: nums[0], Parent: int(nums[1]), Start: nums[2], End: nums[3]})
		case len(fields) == 3 && fields[0] == "count":
			tr.Counters[fields[1]] += nums[0]
		default:
			return bad()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// Append merges another recording (a second process of the same workload)
// into tr, keeping parent links valid. Times stay relative to each
// recording's own start.
func (tr *Trace) Append(o *Trace) {
	base := len(tr.Spans)
	for _, s := range o.Spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		tr.Spans = append(tr.Spans, s)
	}
	for name, v := range o.Counters {
		tr.Counters[name] += v
	}
}

// SelfTimes returns, per span, its duration minus the part of its interval
// that its children cover. Children of one span may overlap — two
// collection workers run trials side by side — so the covered part is the
// length of the union of the children's intervals, clipped to the span,
// not the sum of their durations.
func (tr *Trace) SelfTimes() []int64 {
	children := make([][][2]int64, len(tr.Spans))
	for _, s := range tr.Spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(tr.Spans))
	for i, s := range tr.Spans {
		self[i] = s.End - s.Start - UnionWithin(children[i], s.Start, s.End)
	}
	return self
}

// UnionWithin returns the total length of the union of the intervals,
// each clipped to [lo, hi]. It sorts intervals in place.
func UnionWithin(intervals [][2]int64, lo, hi int64) int64 {
	sort.Slice(intervals, func(i, j int) bool { return intervals[i][0] < intervals[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range intervals {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// the values, or 0 when there are none. It sorts values in place.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	rank := int(math.Ceil(float64(len(values))*p/100)) - 1
	return values[min(max(rank, 0), len(values)-1)]
}
