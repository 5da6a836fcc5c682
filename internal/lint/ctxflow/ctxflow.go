package ctxflow

import (
	"go/ast"
	"strings"

	"piersearch/internal/lint/analysis"
	"piersearch/internal/lint/lintutil"
)

// Analyzer bans context.Background and context.TODO inside internal/
// packages.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "context.Background()/context.TODO() sever the cancellation graph; internal/ code must thread the caller's ctx",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !lintutil.PkgPathContains(path, "internal") {
		return nil
	}
	// Test-harness packages (dhttest, linttest, …) drive APIs from
	// scratch and legitimately mint root contexts.
	if strings.HasSuffix(pass.Pkg.Name(), "test") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkFunc(pass, fd)
			return false
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, ok := lintutil.CalleeOf(pass.TypesInfo, call)
		if !ok || callee.PkgPath != "context" || callee.RecvType != "" {
			return true
		}
		if callee.Name != "Background" && callee.Name != "TODO" {
			return true
		}
		pass.Reportf(call.Pos(),
			"context.%s() severs cancellation inside %s; thread the caller's ctx, or suppress a documented root with //lint:allow ctxflow <reason>",
			callee.Name, fd.Name.Name)
		return true
	})
}
