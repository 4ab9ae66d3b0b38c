package vet

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
	"sort"
	"strconv"
	"strings"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -deps -json` in dir over the given
// patterns and returns the decoded package stream. The -export flag
// makes the go command compile (or fetch from the build cache) every
// listed package and report the file holding its export data, which is
// what lets the stdlib gc importer resolve imports without
// golang.org/x/tools.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("vet: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("vet: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter builds a types.Importer that reads gc export data from
// the files go list reported.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("vet: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// typeCheck type-checks one package's files under path, filling the
// types.Info maps the analyzers rely on. The pass keeps imp, so one of
// its files can be replaced and the package checked again.
func typeCheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*Pass, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info, imp: imp}, nil
}

// LoadPackages loads, parses and type-checks every non-test package
// matched by patterns (relative to dir, e.g. "./..."), returning one
// Pass per package. Test files are excluded: the invariants govern the
// product code, and tests legitimately poke at wall clocks. The loaders
// are the one place test files are left out; no analyzer looks again.
//
// Because go list runs with -e, a pattern can match packages the build
// cannot compile (a broken package, or one whose dependency produced
// no export data). Those are skipped rather than aborting the whole
// run; the returned skipped list carries one "importpath: reason"
// entry per skipped package so callers can surface them. Hard
// failures — go list itself erroring (with its stderr attached), or a
// target file that does not parse — still return an error.
func LoadPackages(dir string, patterns ...string) (passes []*Pass, skipped []string, err error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string)
	var targets []listPkg
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard {
			continue
		}
		if p.Error != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %s", p.ImportPath, p.Error.Err))
			continue
		}
		targets = append(targets, p)
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	for _, p := range targets {
		if len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, fmt.Errorf("vet: %v", err)
			}
			files = append(files, f)
		}
		pass, err := typeCheck(fset, imp, p.ImportPath, files)
		if err != nil {
			// Most commonly a dependency with no export data (it failed
			// to compile, so go list -e reported it without an Export
			// file and the importer's lookup failed). The package cannot
			// be analyzed; skip it with the reason rather than killing
			// the run for every other package.
			skipped = append(skipped, fmt.Sprintf("%s: type-checking: %v", p.ImportPath, err))
			continue
		}
		passes = append(passes, pass)
	}
	sort.Slice(passes, func(i, j int) bool { return passes[i].Pkg.Path() < passes[j].Pkg.Path() })
	sort.Strings(skipped)
	return passes, skipped, nil
}

// LoadFixtureDir parses and type-checks the single package of non-test
// Go files under dir (a testdata fixture, invisible to the go tool),
// checking it under the given import path so path-sensitive analyzers
// (the scopes table) can be exercised from fixtures. Fixture imports
// must resolve via the toolchain — in practice, standard library only.
func LoadFixtureDir(dir, pkgPath string) (*Pass, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("vet: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("vet: %v", err)
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil {
				importSet[path] = true
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("vet: no Go files in %s", dir)
	}
	var imports []string
	for path := range importSet {
		imports = append(imports, path)
	}
	sort.Strings(imports)

	exports := make(map[string]string)
	if len(imports) > 0 {
		pkgs, err := goList(dir, imports)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	pass, err := typeCheck(fset, exportImporter(fset, exports), pkgPath, files)
	if err != nil {
		return nil, fmt.Errorf("vet: type-checking fixture %s: %v", dir, err)
	}
	return pass, nil
}
