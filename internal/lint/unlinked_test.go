package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The linker is the reachability analysis: a function that no program's
// binary contains serves no run, however well it is tested. An internal/
// package can be imported only inside this module, so every main package
// here is every program that can ever reach it. The root package and store
// are public API, and these programs (the CLI, the examples and the
// end-to-end benchmark) are the uses of it that this module shows: a public
// function that none of them links is a knob that no run turns.
// TestNoUnlinkedInternalFuncs builds them all with inlining off (an inlined
// function leaves no symbol of its own), reads their text symbols with
// `go tool nm`, and fails on any function declared in an internal/
// package, the root package or store that none of them contains.

// unlinkedAllow names the scanned functions that no program links but that
// stay, each with its reason. Keys have the form the scan reports: the
// package path below internal/ (the whole import path for the root package
// and store), then the receiver type for a method, then the name. Keep it
// short: an entry that gets linked, or whose function is deleted, fails the
// scan until it is removed.
var unlinkedAllow = map[string]string{
	"stats.ClopperPearson":        "the exact binomial interval a calibrated paired verdict may adopt",
	"stats.betaQuantile":          "ClopperPearson's quantile",
	"stats.Binomial.PMF":          "the exact calibration's binomial weights",
	"stats.LogChoose":             "Binomial.PMF's log coefficient",
	"stats.ChiSquared.CDF":        "the chi-square interval on a variance study's pooled σ",
	"stats.RegIncGammaLower":      "ChiSquared.CDF's regularized gamma",
	"compare.Oracle.Name":         "Oracle must keep satisfying Criterion",
	"varbench.Experiment.Collect": "ROADMAP item 14's figure drivers collect through it",
}

// maxUnlinkedAllow caps unlinkedAllow.
const maxUnlinkedAllow = 8

func TestNoUnlinkedInternalFuncs(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	declared, err := declaredFuncs(root)
	if err != nil {
		t.Fatal(err)
	}
	linked, err := linkedFuncs(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range unlinkedProblems(declared, linked, unlinkedAllow) {
		t.Error(p)
	}
	if len(unlinkedAllow) > maxUnlinkedAllow {
		t.Errorf("unlinkedAllow has %d entries; at most %d", len(unlinkedAllow), maxUnlinkedAllow)
	}
}

// declaredFuncs maps the key of every function and method declared in a
// non-test file of a scanned package (as built for this platform) to its
// position.
func declaredFuncs(root string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-json=ImportPath,Dir,GoFiles", ".", "./store", "./internal/...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	declared := make(map[string]string)
	fset := token.NewFileSet()
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		pkg, ok := scannedPackage(p.ImportPath)
		if !ok {
			continue
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "_" {
					pos := fset.Position(fd.Pos())
					rel, _ := filepath.Rel(root, pos.Filename)
					declared[declKey(pkg, fd)] = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
				}
			}
		}
	}
	return declared, nil
}

const internalPrefix = "varbench/internal/"

// scannedPackage returns the key prefix of a package the scan covers: the
// path below internal/ for an internal/ package, and the import path
// itself for the root package and store.
func scannedPackage(path string) (string, bool) {
	if rest, ok := strings.CutPrefix(path, internalPrefix); ok {
		return rest, true
	}
	return path, path == "varbench" || path == "varbench/store"
}

// declKey is pkg.Name for a function and pkg.Type.Name for a method,
// whatever its receiver's pointerness and type parameters.
func declKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.ParenExpr:
			typ = x.X
		default:
			// An identifier in any package that compiles.
			return pkg + "." + types.ExprString(typ) + "." + fd.Name.Name
		}
	}
}

// linkedFuncs builds every main package of the module into dir with
// inlining off and returns the key of every scanned function whose code
// one of the binaries contains.
func linkedFuncs(root, dir string) (map[string]bool, error) {
	build := exec.Command("go", "build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./...")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	linked := make(map[string]bool)
	for _, b := range bins {
		nm := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name()))
		var stderr bytes.Buffer
		nm.Stderr = &stderr
		out, err := nm.Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %v\n%s", b.Name(), err, stderr.String())
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if key, ok := textSymbolKey(sc.Text()); ok {
				linked[key] = true
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return linked, nil
}

// textSymbolKey reads one line of `go tool nm` output ("addr type name")
// and returns the declaration key of a text symbol in a scanned package.
// Closures (F.func1, F.func1.2, F.gowrap1, F.deferwrap1), range function
// bodies (F-range1), method values (T.M-fm) and package initializers
// (init.0) count for the function that declares them; instantiation
// brackets ([go.shape.string]) and the pointer receiver's parentheses are
// dropped.
func textSymbolKey(line string) (string, bool) {
	f := strings.Fields(line)
	if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
		return "", false
	}
	// The name may itself hold spaces, inside a shape's brackets.
	name := strings.TrimSpace(line[strings.Index(line, " "+f[1]+" ")+3:])
	return symbolKey(name)
}

// symbolKey maps a linker symbol name to its declaration key.
func symbolKey(name string) (string, bool) {
	var b strings.Builder
	depth := 0
	for _, r := range name {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0:
		case r == '(' || r == ')' || r == '*':
		default:
			b.WriteRune(r)
		}
	}
	rest := b.String()
	// The package path ends at the first dot after its last slash.
	slash := strings.LastIndexByte(rest, '/') + 1
	dot := strings.IndexByte(rest[slash:], '.')
	if dot < 0 {
		return "", false
	}
	pkg, ok := scannedPackage(rest[:slash+dot])
	if !ok {
		return "", false
	}
	name = rest[slash+dot+1:]
	if i := strings.IndexByte(name, '-'); i >= 0 {
		name = name[:i]
	}
	parts := strings.Split(name, ".")
	for len(parts) > 1 && isClosureSuffix(parts[len(parts)-1]) {
		parts = parts[:len(parts)-1]
	}
	return pkg + "." + strings.Join(parts, "."), true
}

// isClosureSuffix reports whether a name segment is one the compiler
// appends to a function's own name: funcN, gowrapN, deferwrapN or N.
func isClosureSuffix(s string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap"} {
		if t, ok := strings.CutPrefix(s, p); ok {
			s = t
			break
		}
	}
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// unlinkedProblems lists, sorted, every declared function that is neither
// linked nor allowed, and every allow entry that is linked or no longer
// declared.
func unlinkedProblems(declared map[string]string, linked map[string]bool, allow map[string]string) []string {
	var out []string
	for key, pos := range declared {
		if _, ok := allow[key]; !linked[key] && !ok {
			out = append(out, fmt.Sprintf("%s: %s is linked into no program: delete it, move a test oracle into a _test.go file, or allow-list it with its reason", pos, key))
		}
	}
	for key := range allow {
		switch pos, ok := declared[key]; {
		case !ok:
			out = append(out, fmt.Sprintf("allow-list entry %s names no declared function: remove the entry", key))
		case linked[key]:
			out = append(out, fmt.Sprintf("%s: allow-list entry %s is linked: remove the entry", pos, key))
		}
	}
	sort.Strings(out)
	return out
}

func TestSymbolKey(t *testing.T) {
	for _, c := range []struct{ sym, want string }{
		{"varbench/internal/stats.PABCountsCI", "stats.PABCountsCI"},
		// Value and pointer receivers, and the pointer wrapper the
		// compiler generates for a value method.
		{"varbench/internal/stats.StudentT.CDF", "stats.StudentT.CDF"},
		{"varbench/internal/compare.(*AnalysisState).Extend", "compare.AnalysisState.Extend"},
		{"varbench/internal/compare.(*Decision).String", "compare.Decision.String"},
		// Generic functions and methods: the instantiation brackets go,
		// whatever they hold, and what follows them stays.
		{"varbench/internal/lint/flow.Forward[go.shape.string]", "lint/flow.Forward"},
		{"varbench/internal/lint/flow.Facts[go.shape.string].Clone", "lint/flow.Facts.Clone"},
		{"varbench/internal/lint/flow.Facts[go.shape.string].union", "lint/flow.Facts.union"},
		{"varbench/internal/lint/flow.(*Facts[go.shape.string]).union", "lint/flow.Facts.union"},
		{"varbench/internal/x.G[go.shape.struct { X int; Y map[string][]int }].Clone", "x.G.Clone"},
		{"varbench/internal/x.(*G[go.shape.*uint8,go.shape.[2]int]).Ptr", "x.G.Ptr"},
		// Closures, go and defer wrappers, range-over-func bodies and
		// method values count for the function that declares them.
		{"varbench/internal/casestudy.MHCMLP.func1", "casestudy.MHCMLP"},
		{"varbench/internal/casestudy.MHCMLP.func1.1", "casestudy.MHCMLP"},
		{"varbench/internal/nn.(*Trainer).batchGradient.gowrap1", "nn.Trainer.batchGradient"},
		{"varbench/internal/nn.(*Trainer).batchGradient.func1.deferwrap1", "nn.Trainer.batchGradient"},
		{"varbench/internal/lint.(*witness).find.deferwrap1", "lint.witness.find"},
		{"varbench/internal/x.F-range1", "x.F"},
		{"varbench/internal/x.F-range1.func2", "x.F"},
		{"varbench/internal/x.(*T).M-fm", "x.T.M"},
		{"varbench/internal/x-y.F-range1", "x-y.F"},
		{"varbench/internal/stats.init.0", "stats.init"},
		{"varbench/internal/stats.init", "stats.init"},
		// A name that only begins like a closure suffix is kept.
		{"varbench/internal/x.funcs", "x.funcs"},
		{"varbench/internal/x.T.deferwrap", "x.T.deferwrap"},
		// The root package and store keep their whole import path.
		{"varbench.Analyze", "varbench.Analyze"},
		{"varbench.(*Experiment).withDefaults", "varbench.Experiment.withDefaults"},
		{"varbench.(*guard).attempt.deferwrap1", "varbench.guard.attempt"},
		{"varbench/store.(*SegLog).Put", "varbench/store.SegLog.Put"},
	} {
		if got, ok := symbolKey(c.sym); !ok || got != c.want {
			t.Errorf("symbolKey(%q) = %q, %v; want %q", c.sym, got, ok, c.want)
		}
	}
	for _, sym := range []string{
		"varbench/cmd/varbench/internal.F",
		"varbench/storex.F",
		"type:.eq.varbench.Comparison",
		"type:.eq.varbench/store.cell",
		"fmt.Println",
	} {
		if got, ok := symbolKey(sym); ok {
			t.Errorf("symbolKey(%q) = %q; want no key outside the scanned packages", sym, got)
		}
	}
}

func TestTextSymbolKey(t *testing.T) {
	for _, c := range []struct {
		line, want string
		ok         bool
	}{
		{"  49b4e0 T varbench/internal/x.(*T).M", "x.T.M", true},
		{"  49bb20 t varbench/internal/x.G[go.shape.struct { X int; Y int }].Clone", "x.G.Clone", true},
		{"  4cf460 R varbench/internal/x..dict.G[string]", "", false},
		{"  5a1e40 D varbench/internal/tensor.ErrNotPositiveDefinite", "", false},
		{"  5a1e40 B varbench/internal/stats.floatPool", "", false},
		{"         U varbench/internal/x.F", "", false},
		{"", "", false},
	} {
		if got, ok := textSymbolKey(c.line); ok != c.ok || got != c.want {
			t.Errorf("textSymbolKey(%q) = %q, %v; want %q, %v", c.line, got, ok, c.want, c.ok)
		}
	}
}

func TestDeclKey(t *testing.T) {
	const src = `package p

func F()                              {}
func (T) Value()                      {}
func (*T) Pointer()                   {}
func (f Facts[K]) Clone() Facts[K]    { return f }
func (p *Pair[K, V]) Swap()           {}
func (t *(T)) Paren()                 {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		got = append(got, declKey("lint/p", d.(*ast.FuncDecl)))
	}
	want := []string{"lint/p.F", "lint/p.T.Value", "lint/p.T.Pointer", "lint/p.Facts.Clone", "lint/p.Pair.Swap", "lint/p.T.Paren"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("declKey = %v, want %v", got, want)
	}
}

func TestUnlinkedProblems(t *testing.T) {
	declared := map[string]string{
		"stats.PABCountsCI":         "internal/stats/pabexact.go:10",
		"stats.Planted":             "internal/stats/planted.go:3",
		"stats.ClopperPearson":      "internal/stats/exact.go:7",
		"lint/flow.Facts.Clone":     "internal/lint/flow/dataflow.go:20",
		"varbench.Experiment.Run":   "experiment.go:200",
		"varbench.Planted":          "planted.go:5",
		"varbench/store.SegLog.Put": "store/seglog.go:90",
	}
	// What the scan of the binaries found, through symbolKey.
	linked := make(map[string]bool)
	for _, sym := range []string{
		"varbench/internal/stats.PABCountsCI",
		"varbench/internal/lint/flow.Facts[go.shape.string].Clone",
		"varbench.Experiment.Run",
		"varbench/store.(*SegLog).Put",
	} {
		key, _ := symbolKey(sym)
		linked[key] = true
	}
	allow := map[string]string{"stats.ClopperPearson": "a reason"}

	// The planted functions fail, and they are the only problems.
	got := unlinkedProblems(declared, linked, allow)
	if len(got) != 2 || !strings.HasPrefix(got[0], "internal/stats/planted.go:3: stats.Planted is linked into no program") ||
		!strings.HasPrefix(got[1], "planted.go:5: varbench.Planted is linked into no program") {
		t.Errorf("planted functions: problems %q", got)
	}

	// Once they are linked, nothing is left to report.
	linked["stats.Planted"] = true
	linked["varbench.Planted"] = true
	if got := unlinkedProblems(declared, linked, allow); len(got) != 0 {
		t.Errorf("clean scan: problems %q", got)
	}

	// An allow-list entry whose function became linked is stale.
	stale := map[string]string{"stats.ClopperPearson": "a reason", "stats.PABCountsCI": "stale"}
	got = unlinkedProblems(declared, linked, stale)
	if len(got) != 1 || !strings.Contains(got[0], "allow-list entry stats.PABCountsCI is linked") {
		t.Errorf("linked allow-list entry: problems %q", got)
	}

	// So is an entry that names no declared function.
	gone := map[string]string{"stats.ClopperPearson": "a reason", "stats.Deleted": "stale"}
	got = unlinkedProblems(declared, linked, gone)
	if len(got) != 1 || !strings.Contains(got[0], "allow-list entry stats.Deleted names no declared function") {
		t.Errorf("undeclared allow-list entry: problems %q", got)
	}
}
