package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness: each testdata/<name> directory is one package of
// golden inputs. A finding is expected exactly where a `// want "regexp"`
// (or backquoted) comment sits; the regexp matches against
// "[analyzer] message". Fixtures are typechecked for real — imports resolve
// through the same go list export-data path the driver uses — so the
// analyzers run here exactly as they do in CI.

// fixturePath is the synthetic import-path prefix fixtures are checked
// under; nondeterm zones in tests reference it.
const fixturePath = "fixture/"

type wantComment struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// loadFixture parses and typechecks testdata/<name> as one package.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				importSet[path] = true
			}
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	exports, importMap := map[string]string{}, map[string]string{}
	if len(importSet) > 0 {
		imports := make([]string, 0, len(importSet))
		for path := range importSet {
			imports = append(imports, path)
		}
		sort.Strings(imports)
		exports, importMap, err = deps(".", imports...)
		if err != nil {
			t.Fatal(err)
		}
	}
	pkg, err := Typecheck(fset, fixturePath+name, files, exports, importMap)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// parseWants collects the `// want` expectations of every fixture file.
func parseWants(t *testing.T, pkg *Package) []*wantComment {
	t.Helper()
	var wants []*wantComment
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				posn := pkg.Fset.Position(c.Slash)
				for {
					rest = strings.TrimSpace(rest)
					if rest == "" {
						break
					}
					quoted, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want comment %q", posn.Filename, posn.Line, c.Text)
					}
					expr, err := strconv.Unquote(quoted)
					if err != nil {
						t.Fatalf("%s:%d: %v", posn.Filename, posn.Line, err)
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp: %v", posn.Filename, posn.Line, err)
					}
					wants = append(wants, &wantComment{file: posn.Filename, line: posn.Line, pattern: re})
					rest = rest[len(quoted):]
				}
			}
		}
	}
	return wants
}

// checkFixture runs analyzers over testdata/<name> and diffs the findings
// against the fixture's want comments.
func checkFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, name)
	wants := parseWants(t, pkg)
	for _, d := range Run(pkg, analyzers) {
		posn := pkg.Fset.Position(d.Pos)
		text := fmt.Sprintf("[%s] %s", d.Analyzer, d.Message)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == posn.Filename && w.line == posn.Line && w.pattern.MatchString(text) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected finding: %s", posn.Filename, posn.Line, text)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched %q", w.file, w.line, w.pattern)
		}
	}
}

func TestNondetermFixture(t *testing.T) {
	zones := []Zone{{Path: fixturePath + "nondeterm"}}
	checkFixture(t, "nondeterm", []*Analyzer{NewNondeterm(zones)})
}

func TestNondetermOutOfZone(t *testing.T) {
	// Same constructs, but the fixture package is outside every zone: the
	// fixture has zero want comments, so any finding fails the test.
	zones := []Zone{{Path: fixturePath + "nondeterm"}}
	checkFixture(t, "nondeterm_outzone", []*Analyzer{NewNondeterm(zones)})
}

func TestNondetermFileScopedZone(t *testing.T) {
	// The zone names only inzone.go: outzone.go's identical call must not
	// be reported.
	zones := []Zone{{Path: fixturePath + "nondetermfiles", Files: []string{"inzone.go"}}}
	checkFixture(t, "nondetermfiles", []*Analyzer{NewNondeterm(zones)})
}

func TestJSONSafeFixture(t *testing.T) {
	checkFixture(t, "jsonsafe", []*Analyzer{JSONSafe})
}

func TestSeedFlowFixture(t *testing.T) {
	checkFixture(t, "seedflow", []*Analyzer{SeedFlow})
}

func TestPoolPutFixture(t *testing.T) {
	checkFixture(t, "poolput", []*Analyzer{PoolPut})
}

func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, "lockorder", []*Analyzer{LockOrder})
}

func TestGoroLineFixture(t *testing.T) {
	checkFixture(t, "goroline", []*Analyzer{GoroLine})
}

func TestErrSentinelFixture(t *testing.T) {
	checkFixture(t, "errsentinel", []*Analyzer{ErrSentinel})
}

func TestFlushBarrierFixture(t *testing.T) {
	checkFixture(t, "flushbarrier", []*Analyzer{FlushBarrier})
}
