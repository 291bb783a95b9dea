package store

// The coalescing benchmarks behind BENCH_8.json: seglog Put with a Flush
// after every record (one write+fsync commit per record) versus
// group-committed seglog Put (memcpy into the pending batch; the committer
// amortizes write+fsync over the whole batch). The two are
// durability-equivalent — every record has reached its commit point when
// the timer stops — which is exactly the trade group commit makes: the
// same commits, amortized. CI gates on the ratio: the coalesced Put must
// stay ≥5x faster per op.

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
// so it still matches its BENCH_8.json entry.
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
