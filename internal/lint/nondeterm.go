package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// The nondeterm analyzer: inside the deterministic zones — the packages and
// files whose outputs are contractually bit-identical at any worker count,
// on any machine, across any resume — nothing may read wall clocks, process
// identity or other ambient entropy, import a non-seeded RNG, or iterate a
// map (Go randomizes map iteration order per run). Legitimate uses (an
// Elapsed wall-clock metadata field, CLI progress timing) carry a reasoned
// //lint:allow nondeterm(...) on the offending line.

// A Zone names a deterministic region: an import path (which covers its
// subpackages too — new packages under a zone are in the zone by default)
// and, optionally, specific file basenames when only part of a package is
// deterministic.
type Zone struct {
	Path  string
	Files []string
}

// DeterministicZones is varbench's deterministic surface: the statistical
// core, the RNG layer, the comparison engine, and the collection/analysis
// paths of the public API (the root package's collect.go, variance.go and
// experiment.go — renderers and options stay outside the zone).
var DeterministicZones = []Zone{
	{Path: "varbench", Files: []string{"collect.go", "variance.go", "experiment.go", "retry.go"}},
	{Path: "varbench/internal/stats"},
	{Path: "varbench/internal/xrand"},
	{Path: "varbench/internal/compare"},
}

// bannedImports are entropy sources with no place in a deterministic zone.
var bannedImports = map[string]string{
	"math/rand":    "use internal/xrand streams derived from the experiment seed",
	"math/rand/v2": "use internal/xrand streams derived from the experiment seed",
	"crypto/rand":  "deterministic zones must not consume OS entropy",
}

// bannedCalls are ambient-entropy reads. time.Since is listed separately
// from time.Now because it reads the clock itself.
var bannedCalls = map[funcKey]string{
	{pkg: "time", name: "Now"}:             "wall-clock time is nondeterministic",
	{pkg: "time", name: "Since"}:           "wall-clock time is nondeterministic",
	{pkg: "os", name: "Getpid"}:            "process identity is nondeterministic",
	{pkg: "os", name: "Getppid"}:           "process identity is nondeterministic",
	{pkg: "os", name: "Hostname"}:          "host identity is nondeterministic",
	{pkg: "os", name: "Environ"}:           "ambient environment is nondeterministic",
	{pkg: "os", name: "Getenv"}:            "ambient environment is nondeterministic",
	{pkg: "os", name: "LookupEnv"}:         "ambient environment is nondeterministic",
	{pkg: "runtime", name: "NumGoroutine"}: "scheduler state is nondeterministic",
}

// Nondeterm is the suite's nondeterminism analyzer over DeterministicZones.
var Nondeterm = NewNondeterm(DeterministicZones)

// NewNondeterm returns a nondeterm analyzer over custom zones (used by the
// fixture tests; production code uses the Nondeterm instance).
func NewNondeterm(zones []Zone) *Analyzer {
	a := &Analyzer{
		Name: "nondeterm",
		Doc: "forbid wall-clock, process-entropy and map-iteration-order " +
			"nondeterminism inside the deterministic zones",
	}
	a.Run = func(p *Pass) { runNondeterm(p, zones) }
	return a
}

// inZone reports whether file (of package pkgPath) is governed by zones.
func inZone(zones []Zone, pkgPath, filename string) bool {
	base := filepath.Base(filename)
	for _, z := range zones {
		if pkgPath != z.Path && !strings.HasPrefix(pkgPath, z.Path+"/") {
			continue
		}
		if len(z.Files) == 0 {
			return true
		}
		for _, f := range z.Files {
			if base == f {
				return true
			}
		}
	}
	return false
}

func runNondeterm(p *Pass, zones []Zone) {
	for _, file := range p.Files {
		if !inZone(zones, p.Pkg.Path(), p.Fset.Position(file.Package).Filename) {
			continue
		}
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, ok := bannedImports[path]; ok {
				p.Reportf(imp.Pos(), "import %s inside a deterministic zone: %s", path, why)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := callee(p.TypesInfo, n)
				if fn == nil {
					return true
				}
				if why, ok := bannedCalls[keyOf(fn)]; ok {
					p.Reportf(n.Pos(), "call to %s.%s inside a deterministic zone: %s",
						fn.Pkg().Path(), fn.Name(), why)
				}
			case *ast.RangeStmt:
				if tv, ok := p.TypesInfo.Types[n.X]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						p.Reportf(n.Pos(), "range over map inside a deterministic zone: "+
							"iteration order is randomized per run; iterate a sorted key slice instead")
					}
				}
			}
			return true
		})
	}
}
