package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"varbench/internal/lint/flow"
)

// The flushbarrier analyzer: writes to a buffered store must reach a Flush
// barrier before anything observes their durability. The durable store
// buffers on Put (seglog in its pending group-commit batch), so a path
// that Puts and then exits — or reads back expecting the write — without
// Flush is exactly the torn-tail-on-SIGKILL bug class the
// conformance suite hunts dynamically; this check catches it statically.
//
// A "store-like" value is any type (interface or concrete) whose method
// set has both Put and Flush — store.Backend and every backend satisfy
// this; types with an incidental Flush (bufio.Writer) don't, for lack of
// Put. Dirtiness is a forward may-fact per receiver spelling: Put/PutJSON
// gen it, Flush/Close kill it.
//
// Findings, checked against the may-dirty set at each point:
//   - Get/GetJSON on a receiver that may be dirty — a read-after-write
//     with no barrier in between;
//   - in package main only: a return while a receiver may be dirty. Error
//     bailouts are exempt — a return whose error result is non-nil (or a
//     bare return in a function that HAS an error result) is already a
//     failure path and owes no durability. Deferred Flush/Close on the
//     receiver counts as the barrier;
//   - os.Exit while a receiver may be dirty, in ANY package — deferred
//     flushes do not run past os.Exit, so here defers do NOT count.
//
// The analysis is per-function: a helper that Puts and returns dirty is
// not tracked into its caller. That keeps findings local; the CLI-level
// sweep relies on command mains doing their own Put→Flush pairing, which
// is how cmd/varbench is written.

// FlushBarrier is the suite's write-durability analyzer.
var FlushBarrier = &Analyzer{
	Name: "flushbarrier",
	Doc: "require a Flush barrier between buffered store writes and reads, " +
		"CLI exits and os.Exit",
	Run: runFlushBarrier,
}

func runFlushBarrier(p *Pass) {
	for _, fb := range funcBodies(p.TypesInfo, p.Files) {
		f := &flushFunc{pass: p, fb: fb}
		f.analyze()
	}
}

// storeLike reports whether t's method set has both Put and Flush.
func storeLike(pkg *types.Package, t types.Type) bool {
	if t == nil {
		return false
	}
	for _, name := range [...]string{"Put", "Flush"} {
		obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
		if _, ok := obj.(*types.Func); !ok {
			return false
		}
	}
	return true
}

type flushFunc struct {
	pass *Pass
	fb   funcBody

	deferKills map[string]bool // receivers flushed/closed by a defer
}

func (f *flushFunc) analyze() {
	g := flow.Build(f.fb.Body)

	f.deferKills = make(map[string]bool)
	for _, d := range g.Defers {
		// defer st.Flush() / defer st.Close(), possibly wrapped in a
		// closure: any Flush/Close call in the deferred tree counts.
		ast.Inspect(d, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if path, op := f.storeOp(call); op == "Flush" || op == "Close" {
					f.deferKills[path] = true
				}
			}
			return true
		})
	}

	in := flow.Forward(g, flow.Facts[string]{}, func(n ast.Node, facts flow.Facts[string]) flow.Facts[string] {
		return f.transfer(n, facts, false)
	})
	for _, b := range g.Blocks {
		entry, ok := in[b]
		if !ok {
			continue
		}
		facts := entry.Clone()
		for _, n := range b.Nodes {
			facts = f.transfer(n, facts, true)
		}
	}
}

// storeOp classifies call as a method call on a store-like receiver,
// returning the receiver's spelling and the method name ("" when not a
// store op).
func (f *flushFunc) storeOp(call *ast.CallExpr) (path, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	if f.pass.TypesInfo.Selections[sel] == nil {
		return "", "" // package-qualified function, not a method
	}
	switch sel.Sel.Name {
	case "Put", "PutJSON", "Get", "GetJSON", "Flush", "Close":
	default:
		return "", ""
	}
	if !storeLike(f.pass.Pkg, f.pass.TypesInfo.TypeOf(sel.X)) {
		return "", ""
	}
	return types.ExprString(sel.X), sel.Sel.Name
}

func (f *flushFunc) transfer(n ast.Node, facts flow.Facts[string], check bool) flow.Facts[string] {
	info := f.pass.TypesInfo

	inspectShallow(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, op := f.storeOp(call); op != "" {
			switch op {
			case "Put", "PutJSON":
				facts[path] = true
			case "Flush", "Close":
				delete(facts, path)
			case "Get", "GetJSON":
				if check && facts[path] {
					f.pass.Reportf(call.Pos(),
						"%s read from %s while a Put on this path is unflushed; "+
							"call %s.Flush() between the write and the read",
						op, path, path)
				}
			}
			return true
		}
		if check && len(facts) > 0 {
			if fn := callee(info, call); fn != nil {
				if k := keyOf(fn); k.pkg == "os" && k.recv == "" && k.name == "Exit" {
					// Deferred flushes do not run past os.Exit: full set.
					f.pass.Reportf(call.Pos(),
						"os.Exit with unflushed writes to %s; deferred Flush does "+
							"not run past os.Exit — flush explicitly first",
						dirtyString(facts, nil))
				}
			}
		}
		return true
	})

	// The return's expressions (including a trailing kv.Flush()) evaluate
	// before control leaves, so the exit check runs on the post-walk facts.
	if ret, ok := n.(*ast.ReturnStmt); ok && check && f.pass.Pkg.Name() == "main" {
		f.checkReturn(ret, facts)
	}
	return facts
}

// checkReturn reports a main-package return that leaves a store dirty,
// unless the return is an error bailout or a deferred Flush/Close covers
// the receiver.
func (f *flushFunc) checkReturn(ret *ast.ReturnStmt, facts flow.Facts[string]) {
	live := dirtyString(facts, f.deferKills)
	if live == "" {
		return
	}
	info := f.pass.TypesInfo
	errType := types.Universe.Lookup("error").Type()
	if len(ret.Results) == 0 {
		// A bare return in a function with a (named) error result may be
		// propagating a failure; give it the benefit of the doubt.
		if results := f.resultTypes(); results != nil {
			for _, t := range results {
				if types.AssignableTo(t, errType) {
					return
				}
			}
		}
	}
	for _, r := range ret.Results {
		t := info.TypeOf(r)
		if t == nil || !types.AssignableTo(t, errType) {
			continue
		}
		if id, ok := ast.Unparen(r).(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		return // error bailout: failure paths owe no durability
	}
	f.pass.Reportf(ret.Pos(),
		"CLI exit path returns with unflushed writes to %s; call Flush (or "+
			"Close, or defer one) before returning", live)
}

// resultTypes returns the enclosing function's declared result types, or
// nil when it has none.
func (f *flushFunc) resultTypes() []types.Type {
	var fields *ast.FieldList
	if f.fb.Fn != nil && f.fb.Decl != nil {
		fields = f.fb.Decl.Type.Results
	} else {
		// A literal: find its own type via the body's parent is not tracked;
		// conservatively treat literals as having an error result so bare
		// returns in closures never fire.
		return []types.Type{types.Universe.Lookup("error").Type()}
	}
	if fields == nil {
		return nil
	}
	var out []types.Type
	for _, field := range fields.List {
		t := f.pass.TypesInfo.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, t)
		}
	}
	return out
}

// dirtyString renders the dirty set minus kills, sorted; "" when empty.
func dirtyString(facts flow.Facts[string], kills map[string]bool) string {
	var live []string
	for path := range facts {
		if !kills[path] {
			live = append(live, path)
		}
	}
	sort.Strings(live)
	return strings.Join(live, ", ")
}
