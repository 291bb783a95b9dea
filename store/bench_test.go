package store

// The coalescing benchmarks of the bench gate: seglog Put with a Flush
// after every record (one write+fsync commit per record) versus
// group-committed seglog Put (memcpy into the pending batch; the committer
// amortizes write+fsync over the whole batch). The two are
// durability-equivalent — every record has reached its commit point when
// the timer stops — which is exactly the trade group commit makes: the
// same commits, amortized. The gate asserts the ratio (benchgate.json):
// the coalesced Put must stay ≥5x faster per op.

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = TrialKey(uint64(i%8), "bench-ds", i, "A")
	}
	return keys
}

// BenchmarkStorePutSegLogPerPutFlush commits every record before moving
// on: one Put plus one Flush (write+fsync) per op — the per-append
// durability the group committer provides in batches.
func BenchmarkStorePutSegLogPerPutFlush(b *testing.B) {
	s, err := OpenSegLog(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys := benchKeys(b.N)
	fp := Fingerprint("bench/v1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i], fp, float64(i)); err != nil {
			b.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePutSegLogCoalesced measures the group-committed append:
// Put stages the frame in memory and the committer batches the I/O. The
// final Flush keeps the comparison honest — every record is durable when
// the timer stops, just like the per-Put-flush side.
func BenchmarkStorePutSegLogCoalesced(b *testing.B) {
	s, err := OpenSegLog(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys := benchKeys(b.N)
	fp := Fingerprint("bench/v1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i], fp, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStorePutParallel runs seglog under a worker-pool write pattern
// — the shape a Parallelism-N collection produces — so the coalescing win
// is measured under lock contention too. The sub-benchmark keeps its name
// so it still matches its row in the gate's baseline, BENCH.json.
func BenchmarkStorePutParallel(b *testing.B) {
	b.Run("seglog", func(b *testing.B) {
		s, err := OpenSegLog(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		fp := Fingerprint("bench/v1")
		var worker atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := worker.Add(1)
			i := 0
			for pb.Next() {
				key := fmt.Sprintf("trial/seed=%d/dataset=bench-ds/run=%d/A", w, i)
				if err := s.Put(key, fp, float64(i)); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
		b.StopTimer()
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	})
}

// benchSegLogCells is the store size of the resume benchmarks: the cells
// experiment-resume's untimed run leaves behind.
const benchSegLogCells = 10_000

// writeBenchSegLog writes a closed seglog store of benchSegLogCells score
// cells under fp and returns its directory and keys.
func writeBenchSegLog(b *testing.B, fp string) (string, []string) {
	b.Helper()
	dir := b.TempDir()
	s, err := OpenSegLog(dir)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(benchSegLogCells)
	for i, key := range keys {
		if err := s.Put(key, fp, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, keys
}

// BenchmarkSegLogOpen opens and closes a 10,000-cell seglog store: the
// replay that starts experiment-resume's timed run.
func BenchmarkSegLogOpen(b *testing.B) {
	dir, _ := writeBenchSegLog(b, Fingerprint("bench/v1"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := OpenSegLog(dir)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != benchSegLogCells {
			b.Fatalf("%d cells, want %d", s.Len(), benchSegLogCells)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegLogGet looks cells up in a reopened 10,000-cell store, as
// experiment-resume's timed run does: hit finds a stored cell, and miss
// asks for one of the next 10,000 trials, which the store lacks. The bench
// gate holds both at zero allocations.
func BenchmarkSegLogGet(b *testing.B) {
	fp := Fingerprint("bench/v1")
	dir, _ := writeBenchSegLog(b, fp)
	s, err := OpenSegLog(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys := benchKeys(2 * benchSegLogCells)
	for _, bc := range []struct {
		name string
		keys []string
		hit  bool
	}{{"hit", keys[:benchSegLogCells], true}, {"miss", keys[benchSegLogCells:], false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(bc.keys[i%len(bc.keys)], fp); ok != bc.hit {
					b.Fatalf("Get hit %v, want %v", ok, bc.hit)
				}
			}
		})
	}
}
