// Command piervet runs the repo's custom analyzer suite over package
// patterns, exactly as `go vet` would: findings print as
// file:line:col: [analyzer] message, and a non-zero exit means the
// tree violates an invariant. CI runs it as a required job:
//
//	go run ./cmd/piervet ./...
//
// Findings are suppressed per line with a mandatory-reason directive:
//
//	//lint:allow <analyzer> <reason>
//
// See internal/lint/doc.go for the invariant each analyzer encodes.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"piersearch/internal/lint/analysis"
	"piersearch/internal/lint/codecguard"
	"piersearch/internal/lint/ctxflow"
	"piersearch/internal/lint/determinism"
	"piersearch/internal/lint/load"
	"piersearch/internal/lint/locksafe"
	"piersearch/internal/lint/metricnames"
	"piersearch/internal/lint/spanhygiene"
	"piersearch/internal/lint/unusedexport"
)

// analyzers is the per-package suite, run over every target package.
// unusedexport completes the suite; it runs once, over the targets
// and the whole module together.
var analyzers = []*analysis.Analyzer{
	codecguard.Analyzer,
	ctxflow.Analyzer,
	determinism.Analyzer,
	locksafe.Analyzer,
	metricnames.Analyzer,
	spanhygiene.Analyzer,
}

func main() {
	verbose := flag.Bool("v", false, "also print soft type-check errors and per-package progress")
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: piervet [-v] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", unusedexport.Name, unusedexport.Doc)
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%s: %s\n", unusedexport.Name, unusedexport.Doc)
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := run(patterns, *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "piervet: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "piervet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// run loads patterns once and applies every analyzer to every target
// package, returning the formatted, allow-filtered findings sorted by
// position.
func run(patterns []string, verbose bool) ([]string, error) {
	loader := &load.Loader{}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}

	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	allows := analysis.ParseAllows(loader.Fset(), files)
	var findings []string
	report := func(name string, d analysis.Diagnostic) {
		if allows.Suppressed(loader.Fset(), name, d.Pos) {
			return
		}
		p := loader.Fset().Position(d.Pos)
		findings = append(findings, fmt.Sprintf("%s: [%s] %s", p, name, d.Message))
	}
	for _, pkg := range pkgs {
		// Skip the analyzers' own fixture trees: they are violations on
		// purpose. (go list won't match testdata, but guard anyway for
		// explicit patterns.)
		if pkg.Pkg == nil {
			continue
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "piervet: checking %s\n", pkg.ImportPath)
			for _, e := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "piervet: %s: soft type error: %v\n", pkg.ImportPath, e)
			}
		}
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      loader.Fset(),
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d analysis.Diagnostic) { report(a.Name, d) }
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}

	// unusedexport judges the targets by every use in the module, so
	// it loads the whole module whatever the patterns were.
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	module, err := loader.Load(filepath.Join(root, "..."))
	if err != nil {
		return nil, err
	}
	for _, d := range unusedexport.Check(pkgs, module) {
		report(unusedexport.Name, d)
	}
	sort.Strings(findings)
	return findings, nil
}

// moduleRoot returns the directory of the main module's go.mod.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a module")
	}
	return filepath.Dir(gomod), nil
}
