// Package load turns package patterns into parsed, type-checked
// packages for the piervet analyzers. It is a small offline
// replacement for golang.org/x/tools/go/packages: package metadata
// comes from `go list -json -deps` and types come from checking
// source bottom-up with go/types, so it needs nothing beyond the Go
// toolchain already in the build image.
//
// Two resolution modes share one code path:
//
//   - Module mode (cmd/piervet): patterns are resolved in a module
//     directory; the dependency closure — standard library included —
//     is listed once and type-checked from source.
//   - Overlay mode (linttest fixtures): an overlay root maps import
//     paths to GOPATH-style fixture directories (root/<import/path>),
//     and anything not in the overlay falls through to `go list`,
//     so fixtures can stub repo packages like
//     piersearch/internal/telemetry while importing the real standard
//     library.
//
// CGO is disabled for listing so cgo-capable packages (net, os/user)
// resolve to their pure-Go file sets, which go/types can check
// without a C preprocessor.
package load

import (
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
)

// A Package is one parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	// TypeErrors holds soft type-check failures. Analysis proceeds on
	// a package with type errors (piervet must not hard-fail on code
	// the compiler already rejects more legibly), but the driver
	// surfaces them in verbose mode.
	TypeErrors []error
}

// A Loader resolves, parses, and type-checks packages. It caches
// type-checked packages, so one Loader amortizes the standard-library
// closure across many targets.
type Loader struct {
	// ModDir is the module directory `go list` runs in. Defaults to
	// the current directory.
	ModDir string

	// OverlayRoot, when set, is a GOPATH-src-style directory searched
	// before `go list`: import path p resolves to OverlayRoot/p if
	// that directory holds Go files.
	OverlayRoot string

	fset   *token.FileSet
	listed map[string]*listPkg
	byPath map[string]*types.Package
	parsed map[string][]*ast.File
	errs   map[string][]error
	infos  map[string]*types.Info
}

type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Standard   bool
	DepOnly    bool
}

// Fset returns the loader's file set (shared by every package it
// loads).
func (l *Loader) Fset() *token.FileSet {
	l.init()
	return l.fset
}

func (l *Loader) init() {
	if l.fset == nil {
		l.fset = token.NewFileSet()
		l.listed = map[string]*listPkg{}
		l.byPath = map[string]*types.Package{}
		l.parsed = map[string][]*ast.File{}
		l.errs = map[string][]error{}
		l.infos = map[string]*types.Info{}
	}
}

// Load resolves patterns (as the go command would) and returns the
// matched packages, parsed and type-checked. Standard-library
// dependencies are checked but not returned.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	l.init()
	targets, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, path := range targets {
		p, err := l.LoadOne(path)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// LoadOne loads a single package by import path, resolving the
// overlay first in overlay mode.
func (l *Loader) LoadOne(path string) (*Package, error) {
	l.init()
	tp, err := l.check(path, true)
	if err != nil {
		return nil, err
	}
	lp := l.listed[path]
	dir := ""
	if lp != nil {
		dir = lp.Dir
	}
	info := l.infoFor(path)
	return &Package{
		ImportPath: path,
		Dir:        dir,
		Files:      l.parsed[path],
		Pkg:        tp,
		TypesInfo:  info,
		TypeErrors: l.errs[path],
	}, nil
}

// list runs `go list -deps` over patterns, records every package in
// the closure, and returns the import paths of the pattern matches
// themselves in listing order.
func (l *Loader) list(patterns []string) ([]string, error) {
	args := append([]string{"list", "-e", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModDir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var targets []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		q := p
		if _, ok := l.listed[p.ImportPath]; !ok {
			l.listed[p.ImportPath] = &q
		}
		if !p.DepOnly {
			targets = append(targets, p.ImportPath)
		}
	}
	sort.Strings(targets)
	return targets, nil
}

// newInfo allocates the types.Info layout kept for target packages;
// dependencies are checked without Info to keep memory flat.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

func (l *Loader) infoFor(path string) *types.Info { return l.infos[path] }

// Import implements types.Importer for dependency resolution during
// checking.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.check(path, false)
}

// check type-checks path (memoized). Targets and every package
// outside the standard library keep full types.Info, so a module
// package is checked once whichever role it is first loaded in and
// its types stay identical across the packages that import it;
// standard-library dependencies keep only the *types.Package.
func (l *Loader) check(path string, target bool) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	target = target || !l.standard(path)
	if p, ok := l.byPath[path]; ok {
		if target && l.infos[path] == nil {
			// Previously loaded as a bare dependency; re-check with
			// Info so the analyzers get type facts.
			delete(l.byPath, path)
		} else {
			return p, nil
		}
	}
	dir, files, err := l.resolve(path)
	if err != nil {
		return nil, err
	}
	var parsed []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, filepath.Join(dir, f), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, af)
	}
	var info *types.Info
	if target {
		info = newInfo()
		l.infos[path] = info
	}
	var softErrs []error
	conf := types.Config{
		Importer:         l,
		FakeImportC:      true,
		IgnoreFuncBodies: false,
		Error:            func(err error) { softErrs = append(softErrs, err) },
	}
	tp, err := conf.Check(path, l.fset, parsed, info)
	if tp == nil {
		return nil, err
	}
	l.byPath[path] = tp
	l.parsed[path] = parsed
	l.errs[path] = softErrs
	return tp, nil
}

// standard reports whether go list placed path in the standard
// library.
func (l *Loader) standard(path string) bool {
	lp, ok := l.listed[path]
	if !ok {
		lp, ok = l.listed["vendor/"+path]
	}
	return ok && lp.Standard
}

// resolve maps an import path to a directory and file list: overlay
// first, then the `go list` closure (with the standard library's
// vendored golang.org/x/... mapping), then a last-resort single
// `go list` for paths outside the recorded closure.
func (l *Loader) resolve(path string) (dir string, files []string, err error) {
	if l.OverlayRoot != "" {
		d := filepath.Join(l.OverlayRoot, filepath.FromSlash(path))
		if names, ok := goFilesIn(d); ok {
			return d, names, nil
		}
	}
	if lp, ok := l.listed[path]; ok {
		return lp.Dir, lp.GoFiles, nil
	}
	// The standard library vendors golang.org/x dependencies under
	// a "vendor/" prefix; source files import the unprefixed path.
	if lp, ok := l.listed["vendor/"+path]; ok {
		return lp.Dir, lp.GoFiles, nil
	}
	// Outside the recorded closure (overlay fixtures importing a
	// stdlib package the module never pulled in): list it now.
	if _, err := l.list([]string{path}); err == nil {
		if lp, ok := l.listed[path]; ok {
			return lp.Dir, lp.GoFiles, nil
		}
	}
	return "", nil, fmt.Errorf("cannot resolve import %q", path)
}

// goFilesIn returns the non-test Go files in dir, and whether dir
// looks like a package directory at all.
func goFilesIn(dir string) ([]string, bool) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, false
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, len(names) > 0
}
