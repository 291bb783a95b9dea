// Command varbenchlint is the multichecker for varbench's project-specific
// static analyzers (internal/lint): nondeterm, jsonsafe, seedflow and
// poolput — the determinism and NaN-safety contracts of the benchmark
// engine — plus the flow-sensitive suite built on internal/lint/flow:
// lockorder, goroline, errsentinel and flushbarrier — the concurrency and
// durability contracts of the store layer, enforced mechanically instead
// of by prose.
//
// It runs over package patterns and exits 1 on findings:
//
//	go run ./cmd/varbenchlint ./...
//	go run ./cmd/varbenchlint -format github ./...   # CI annotations
//	go run ./cmd/varbenchlint -checks nondeterm,jsonsafe ./internal/stats
//
// The contracts bind production code, so test files are not analyzed.
//
// Intentional violations carry an inline, reasoned escape hatch:
//
//	//lint:allow nondeterm(Elapsed is wall-clock metadata, not result state)
//
// See internal/lint's package documentation for each analyzer's contract.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"varbench/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("varbenchlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "finding output format: text or github (::error workflow annotations)")
	checks := fs.String("checks", "", "comma-separated analyzer subset to run (default: all)")
	dir := fs.String("C", ".", "directory to resolve package patterns from")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: varbenchlint [-format text|github] [-checks a,b] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(stderr, "varbenchlint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "varbenchlint:", err)
		return 2
	}
	found := 0
	for _, pkg := range pkgs {
		for _, d := range lint.Run(pkg, analyzers) {
			found++
			printDiagnostic(stdout, *format, pkg, d)
		}
	}
	if found > 0 {
		fmt.Fprintf(stderr, "varbenchlint: %d finding(s)\n", found)
		return 1
	}
	return 0
}

// selectAnalyzers resolves a -checks subset ("" means the whole suite).
func selectAnalyzers(checks string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if checks == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: nondeterm, jsonsafe, seedflow, poolput, "+
				"lockorder, goroline, errsentinel, flushbarrier)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func printDiagnostic(w io.Writer, format string, pkg *lint.Package, d lint.Diagnostic) {
	posn := pkg.Fset.Position(d.Pos)
	file := posn.Filename
	if rel, err := filepath.Rel(".", file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	if format == "github" {
		// One workflow-command line per finding: GitHub renders these as
		// inline PR annotations and in the job summary.
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d::[%s] %s\n",
			file, posn.Line, posn.Column, d.Analyzer, d.Message)
		return
	}
	fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", file, posn.Line, posn.Column, d.Analyzer, d.Message)
}
