// Package linttest runs piervet analyzers over fixture packages, in
// the style of golang.org/x/tools/go/analysis/analysistest: fixtures
// live in GOPATH-shaped trees under testdata/src, and expected
// diagnostics are written next to the offending line as
//
//	bad() // want `regexp matching the message`
//
// Every reported diagnostic must match a want comment on its exact
// line, and every want comment must be matched by a diagnostic;
// anything unmatched in either direction fails the test. lint:allow
// suppression runs before matching, so a fixture line carrying both a
// violation and a reasoned allow directive proves the escape hatch by
// expecting nothing.
package linttest

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"piersearch/internal/lint/analysis"
	"piersearch/internal/lint/load"
)

// Run loads each fixture package (an import path under
// testdata/src) with the shared overlay loader, applies the analyzer,
// filters suppressed diagnostics, and matches the rest against want
// comments.
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, fixturePkgs ...string) {
	t.Helper()
	l := &load.Loader{OverlayRoot: srcRoot}
	for _, path := range fixturePkgs {
		pkg, err := l.LoadOne(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		runOne(t, l, a, pkg)
	}
}

func runOne(t *testing.T, l *load.Loader, a *analysis.Analyzer, pkg *load.Package) {
	t.Helper()
	fset := l.Fset()

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     pkg.Files,
		Pkg:       pkg.Pkg,
		TypesInfo: pkg.TypesInfo,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer failed on %s: %v", a.Name, pkg.ImportPath, err)
	}

	match(t, fset, a.Name, pkg.Files, diags)
}

// RunModule loads the fixture packages as one module, hands them all to
// check as both targets and module (the shape of unusedexport.Check),
// and matches its diagnostics against the want comments of every
// fixture file.
func RunModule(t *testing.T, srcRoot, name string, check func(targets, module []*load.Package) []analysis.Diagnostic, fixturePkgs ...string) {
	t.Helper()
	l := &load.Loader{OverlayRoot: srcRoot}
	var pkgs []*load.Package
	var files []*ast.File
	for _, path := range fixturePkgs {
		pkg, err := l.LoadOne(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
		files = append(files, pkg.Files...)
	}
	match(t, l.Fset(), name, files, check(pkgs, pkgs))
}

// match filters diags through the files' allow directives and pairs
// the rest with the files' want comments; anything unpaired fails t.
func match(t *testing.T, fset *token.FileSet, name string, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	allows := analysis.ParseAllows(fset, files)
	wants := collectWants(t, fset, files)

	for _, d := range diags {
		if allows.Suppressed(fset, name, d.Pos) {
			continue
		}
		pos := fset.Position(d.Pos)
		key := posKey{pos.Filename, pos.Line}
		matched := false
		for i, w := range wants[key] {
			if w.used || !w.re.MatchString(d.Message) {
				continue
			}
			wants[key][i].used = true
			matched = true
			break
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", name, pos.Filename, pos.Line, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s: expected diagnostic matching %q at %s:%d, got none", name, w.re.String(), key.file, key.line)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

var wantRE = regexp.MustCompile("// want `([^`]*)`")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[posKey][]want {
	t.Helper()
	wants := map[posKey][]want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := fset.Position(c.Pos())
					key := posKey{pos.Filename, pos.Line}
					wants[key] = append(wants[key], want{re: re})
				}
			}
		}
	}
	return wants
}

// MustClean is a helper for analyzer self-tests on real repo
// packages: it fails if the analyzer reports anything not covered by
// a lint:allow directive.
func MustClean(t *testing.T, a *analysis.Analyzer, modDir string, patterns ...string) {
	t.Helper()
	l := &load.Loader{ModDir: modDir}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		t.Fatalf("loading %s: %v", strings.Join(patterns, " "), err)
	}
	for _, pkg := range pkgs {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      l.Fset(),
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.ImportPath, err)
		}
		allows := analysis.ParseAllows(l.Fset(), pkg.Files)
		for _, d := range diags {
			if allows.Suppressed(l.Fset(), a.Name, d.Pos) {
				continue
			}
			p := l.Fset().Position(d.Pos)
			t.Errorf("%s: %s: %s", a.Name, fmt.Sprintf("%s:%d", p.Filename, p.Line), d.Message)
		}
	}
}
