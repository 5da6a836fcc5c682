// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis driver surface. The build
// environment vendors no third-party modules, so piervet's analyzers
// are written against this API instead; it mirrors the upstream shape
// (Analyzer, Pass, Diagnostic) closely enough that migrating to the
// real framework is a mechanical import swap.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis: a named invariant plus the
// function that checks a single package for violations of it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//lint:allow <name> <reason>" suppression directives.
	Name string

	// Doc is a one-paragraph summary; the full specification lives in
	// the analyzer package's doc.go.
	Doc string

	// Run checks one package. Diagnostics are delivered through
	// pass.Report; the error return is for operational failures only
	// (a broken pass, not a finding).
	Run func(pass *Pass) error
}

// A Pass presents one package to an Analyzer. It carries the parsed
// syntax, the type-checked package, and the reporting sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver owns filtering
	// (lint:allow suppression) and formatting.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a position and a message. The analyzer
// name is attached by the driver.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
