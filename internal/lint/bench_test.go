package lint

import (
	"runtime"
	"testing"
)

// BenchmarkLintRepo measures one full lint pass over the module: load (go
// list is memoized process-wide, so iterations after the first measure the
// parse+typecheck+analyze cost the cache is meant to expose), then every
// analyzer over every package. This is the varbenchlint hot path.
//
// B/op and allocs/op grow with the module, not just with what the
// analyzers cost, so the pass also reports its allocation per loaded
// source line, B/line and allocs/line; the bench gate (benchgate.json)
// gates those instead. An analyzer that starts allocating per node instead
// of per function shows up there before it shows up as CI latency.
func BenchmarkLintRepo(b *testing.B) {
	// Warm the go list cache outside the timed region so iteration 0 does
	// not pay the one-time export-data build.
	pkgs, err := Load("../..", "./...")
	if err != nil {
		b.Fatal(err)
	}
	lines := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			lines += pkg.Fset.File(f.Pos()).LineCount()
		}
	}
	analyzers := Analyzers()
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		pkgs, err := Load("../..", "./...")
		if err != nil {
			b.Fatal(err)
		}
		for _, pkg := range pkgs {
			if diags := Run(pkg, analyzers); len(diags) != 0 {
				b.Fatalf("lint pass found %d violations; the repo must stay clean", len(diags))
			}
		}
	}
	runtime.ReadMemStats(&after)
	perLine := float64(b.N) * float64(lines)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perLine, "B/line")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perLine, "allocs/line")
}
