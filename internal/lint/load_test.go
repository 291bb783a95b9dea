package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// Loader error paths: the driver leans on go list and gc export data, and
// each failure mode must surface as a diagnosable error instead of a
// panic or a silently empty package list.

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestTypecheckMissingExportData(t *testing.T) {
	// The source imports fmt but the exports map is empty: the importer
	// must fail with the no-export-data error, wrapped per package.
	fset, files := parseOne(t, `package x

import "fmt"

var _ = fmt.Sprint
`)
	_, err := Typecheck(fset, "fixture/x", files, map[string]string{}, nil)
	if err == nil {
		t.Fatal("Typecheck succeeded with no export data for fmt")
	}
	if !strings.Contains(err.Error(), `no export data for "fmt"`) {
		t.Errorf("error = %v, want no-export-data for fmt", err)
	}
}

// deps resolves the export-data maps of patterns and their transitive
// dependencies, listed from dir, for fixtures that typecheck their own
// sources.
func deps(dir string, patterns ...string) (exports, importMap map[string]string, err error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	exports, importMap = exportMaps(pkgs)
	return exports, importMap, nil
}

func TestTypecheckVendoredImportMap(t *testing.T) {
	// A vendored-style import map: the source imports "vendored/fmt", the
	// map resolves it to the real fmt, and the real export data satisfies
	// the importer.
	exports, _, err := deps(".", "fmt")
	if err != nil {
		t.Fatal(err)
	}
	fset, files := parseOne(t, `package x

import f "vendored/fmt"

var _ = f.Sprint
`)
	pkg, err := Typecheck(fset, "fixture/x", files, exports, map[string]string{"vendored/fmt": "fmt"})
	if err != nil {
		t.Fatalf("Typecheck with import map: %v", err)
	}
	if pkg.Types == nil || pkg.Types.Name() != "x" {
		t.Errorf("typechecked package = %v, want package x", pkg.Types)
	}
}

func TestParseGoListMalformed(t *testing.T) {
	if _, err := parseGoList([]byte(`{"ImportPath": "a"} {truncated`)); err == nil {
		t.Error("parseGoList accepted malformed JSON")
	} else if !strings.Contains(err.Error(), "decoding go list output") {
		t.Errorf("error = %v, want decode error", err)
	}
}

func TestParseGoListPackageError(t *testing.T) {
	out := []byte(`{"ImportPath": "broken/pkg", "Error": {"Err": "no Go files in /tmp/broken"}}`)
	if _, err := parseGoList(out); err == nil {
		t.Error("parseGoList accepted a package with a load error")
	} else if !strings.Contains(err.Error(), "broken/pkg") || !strings.Contains(err.Error(), "no Go files") {
		t.Errorf("error = %v, want the package's own error surfaced", err)
	}
}

func TestParseGoListStream(t *testing.T) {
	// go list emits concatenated JSON objects, not an array.
	out := []byte(`{"ImportPath": "a", "Export": "/tmp/a.a"}
{"ImportPath": "b", "DepOnly": true}
`)
	pkgs, err := parseGoList(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].ImportPath != "a" || !pkgs[1].DepOnly {
		t.Errorf("parsed %+v, want packages a and b", pkgs)
	}
}

func TestLoadBadDir(t *testing.T) {
	if _, err := Load("/nonexistent-varbench-dir", "./..."); err == nil {
		t.Error("Load from a nonexistent directory succeeded")
	}
}

func TestLoadBadPattern(t *testing.T) {
	if _, err := Load(".", "./no-such-subdir-xyzzy"); err == nil {
		t.Error("Load of a nonexistent pattern succeeded")
	}
}

func TestGoListCached(t *testing.T) {
	// Two identical loads must run go list once: the second comes from the
	// process-wide cache. Distinct patterns still miss.
	countExecs := func() int {
		listCacheMu.Lock()
		defer listCacheMu.Unlock()
		return goListExecs
	}
	if _, _, err := deps(".", "errors"); err != nil {
		t.Fatal(err)
	}
	before := countExecs()
	if _, _, err := deps(".", "errors"); err != nil {
		t.Fatal(err)
	}
	if after := countExecs(); after != before {
		t.Errorf("repeated deps ran go list again (%d → %d execs), want cache hit", before, after)
	}
	if _, _, err := deps(".", "errors", "strconv"); err != nil {
		t.Fatal(err)
	}
	if after := countExecs(); after != before+1 {
		t.Errorf("distinct patterns: %d → %d execs, want exactly one more", before, after)
	}
}
