package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// The package loader behind the varbenchlint driver and the fixture tests.
// It shells out to `go list -export -deps -json`, which compiles every
// dependency's export data into the build cache, then typechecks only the
// target packages from source with the standard gc importer reading that
// export data. This is the same modular strategy `go vet` uses, and it
// needs nothing outside the standard library and the go command.

// A Package is one typechecked compilation unit ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Standard   bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// exportMaps returns the export-data location of every listed package
// (path → file) and the vendoring import map (source import path →
// resolved path).
func exportMaps(pkgs []*listPackage) (exports, importMap map[string]string) {
	exports = make(map[string]string, len(pkgs))
	importMap = make(map[string]string)
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
	}
	return exports, importMap
}

// Load lists patterns (e.g. "./...") from dir and returns every matched
// module package typechecked from source. Test files are not loaded: the
// determinism and JSON contracts bind production code, and tests routinely
// use wall clocks and ad-hoc seeds legitimately.
func Load(dir string, patterns ...string) ([]*Package, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports, importMap := exportMaps(pkgs)

	fset := token.NewFileSet()
	var out []*Package
	for _, m := range pkgs {
		if m.DepOnly || m.Standard {
			continue
		}
		if len(m.CgoFiles) > 0 {
			return nil, fmt.Errorf("lint: %s: cgo packages are not supported", m.ImportPath)
		}
		if len(m.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range m.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(m.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			files = append(files, f)
		}
		pkg, err := Typecheck(fset, m.ImportPath, files, exports, importMap)
		if err != nil {
			return nil, err
		}
		pkg.Dir = m.Dir
		out = append(out, pkg)
	}
	return out, nil
}

// Typecheck checks files as one package named path, resolving imports
// through the export-data maps of a go list listing (see exportMaps).
// importMap may be nil when the module does not vendor.
func Typecheck(fset *token.FileSet, path string, files []*ast.File, exports, importMap map[string]string) (*Package, error) {
	compilerImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return openExport(exports, path)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := importMap[importPath]; ok {
			importPath = mapped
		}
		return compilerImporter.(types.ImporterFrom).ImportFrom(importPath, "", 0)
	})
	conf := types.Config{Importer: imp}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typechecking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

func openExport(exports map[string]string, path string) (io.ReadCloser, error) {
	file, ok := exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// The go list cache: one varbenchlint invocation (or one test binary)
// resolves the same (dir, patterns) pair repeatedly — the driver for the
// target packages, every fixture for its import closure, each benchmark
// iteration for the whole repo. `go list -export -deps` is by far the
// most expensive step (it compiles export data for the dependency
// closure), so successful listings are memoized for the process lifetime.
// varbenchlint is one-shot and tests don't rewrite packages mid-process,
// so staleness is not a concern; errors are never cached.
var (
	listCacheMu sync.Mutex
	listCache   = make(map[string][]*listPackage)

	// goListExecs counts actual go list executions; the cache tests assert
	// repeated loads coalesce into one.
	goListExecs int
)

// goList runs `go list -export -deps -json` — memoized per (dir, patterns)
// — and decodes the package stream.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	key := dir + "\x00" + strings.Join(patterns, "\x00")
	listCacheMu.Lock()
	cached, ok := listCache[key]
	listCacheMu.Unlock()
	if ok {
		return cached, nil
	}

	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Export,DepOnly,Standard,ImportMap,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	listCacheMu.Lock()
	goListExecs++
	listCacheMu.Unlock()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	pkgs, err := parseGoList(out)
	if err != nil {
		return nil, err
	}
	listCacheMu.Lock()
	listCache[key] = pkgs
	listCacheMu.Unlock()
	return pkgs, nil
}

// parseGoList decodes a `go list -json` package stream, rejecting packages
// that carry load errors.
func parseGoList(out []byte) ([]*listPackage, error) {
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
