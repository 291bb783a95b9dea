package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The seedflow analyzer: every xrand stream in varbench derives from a
// declared identity — (Seed, realization, source, shard) tuples flowing
// through Split labels (or SplitSeed of a continued LabelHash), precomputed
// seed tables, or named derivation helpers. Seeds invented at the call site
// from loop-variable arithmetic (xrand.New(seed + uint64(i))) silently
// couple streams, break the "reorderable sources" contract and make resumed
// runs depend on how a loop was batched. The analyzer flags any loop
// variable reaching an xrand constructor's seed argument through arithmetic
// or conversions. Reading a precomputed table by loop index
// (xrand.New(roots[i])) and passing loop variables into a derivation CALL
// (root.Split(label(i))) are both fine — the derivation is declared, not
// invented — so the walk stops at index positions and non-conversion calls.

// xrandPath is the import path of the RNG layer whose constructors are
// guarded.
const xrandPath = "varbench/internal/xrand"

// SeedFlow is the suite's seed-derivation analyzer.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc: "require seeds passed to xrand constructors to derive from declared " +
		"(Seed, realization, source, shard) tuples, not loop-variable " +
		"arithmetic at the call site",
	Run: runSeedFlow,
}

func runSeedFlow(p *Pass) {
	for _, file := range p.Files {
		loopVars := collectLoopVars(p, file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := callee(p.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != xrandPath {
				return true
			}
			k := keyOf(fn)
			isCtor := (k.recv == "" && (k.name == "New" || k.name == "NewStreams")) ||
				(k.recv == "Source" && k.name == "Seed")
			if !isCtor {
				return true
			}
			if bad := firstLoopVar(p, call.Args[0], loopVars); bad != nil {
				p.Reportf(call.Args[0].Pos(),
					"seed for xrand.%s derives from loop variable %q at the call site; "+
						"derive it from a declared (seed, realization, source, shard) tuple "+
						"via Split/SplitSeed labels, a seed table, or a named derivation function",
					k.name, bad.Name)
			}
			return true
		})
	}
}

// collectLoopVars gathers the object of every for/range-declared variable
// in file. Object identity is per-declaration, so one flat set per file is
// scope-correct.
func collectLoopVars(p *Pass, file *ast.File) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	addDef := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.TypesInfo.Defs[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				addDef(n.Key)
				if n.Value != nil {
					addDef(n.Value)
				}
			}
		case *ast.ForStmt:
			if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					addDef(lhs)
				}
			}
		}
		return true
	})
	return vars
}

// firstLoopVar returns the first loop-variable identifier reachable from e
// through arithmetic, conversions, parens and pointer wrappers. It does not
// descend into index positions (a table lookup is a declared derivation)
// nor into real call arguments (a named function owns its derivation), but
// does descend into type conversions, which merely relabel the arithmetic.
func firstLoopVar(p *Pass, e ast.Expr, loopVars map[types.Object]bool) *ast.Ident {
	var find func(e ast.Expr) *ast.Ident
	find = func(e ast.Expr) *ast.Ident {
		switch e := e.(type) {
		case *ast.Ident:
			if obj := p.TypesInfo.Uses[e]; obj != nil && loopVars[obj] {
				return e
			}
		case *ast.BinaryExpr:
			if bad := find(e.X); bad != nil {
				return bad
			}
			return find(e.Y)
		case *ast.UnaryExpr:
			return find(e.X)
		case *ast.ParenExpr:
			return find(e.X)
		case *ast.StarExpr:
			return find(e.X)
		case *ast.IndexExpr:
			return find(e.X) // the index itself is a lookup, not a derivation
		case *ast.CallExpr:
			if isConversion(p.TypesInfo, e) && len(e.Args) == 1 {
				return find(e.Args[0])
			}
		}
		return nil
	}
	return find(e)
}
