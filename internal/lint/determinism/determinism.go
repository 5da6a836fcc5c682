package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"piersearch/internal/lint/analysis"
	"piersearch/internal/lint/lintutil"
)

// Analyzer enforces the virtual-time and byte-identical-output
// contracts: no wall clocks or global randomness in the replay and
// codec packages, and no map-iteration-ordered encoding anywhere.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "bans time.Now/time.Sleep and global math/rand in internal/scale, internal/simnet, internal/gnutella and internal/codec, and map iteration in encode paths everywhere — the byte-identical BENCH_scale.json contract depends on it; instants come from simnet.Clock",
	Run:  run,
}

// clockScoped lists the package-path suffixes where the wall-clock
// and global-rand bans apply: the virtual-time harness, the clock and
// transport it runs on, and the Gnutella overlay (every observable
// instant must come from simnet.Clock), and the codec (pure functions
// of their input, no environmental state).
var clockScoped = []string{"internal/scale", "internal/simnet", "internal/gnutella", "internal/codec"}

// bannedTime is the wall-clock surface of package time. Timers and
// tickers are included: each one is a hidden wall-clock read.
var bannedTime = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "Since": true, "Until": true,
}

// encodePrefixes are the function-name shapes treated as wire/encode
// paths for the map-iteration rule.
var encodePrefixes = []string{"Encode", "encode", "Append", "append", "Marshal", "marshal", "WireSize", "wireSize"}

// randConstructors build an explicitly-seeded generator rather than
// drawing from the global source — they are the remedy the ban points
// at, not a violation of it.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	inClockScope := false
	for _, s := range clockScoped {
		if lintutil.PkgPathHasSuffix(path, s) || strings.Contains(path, "/"+s+"/") {
			inClockScope = true
		}
	}
	inEncodeScope := lintutil.PkgPathContains(path, "internal")
	// Map-range order only corrupts output when the iteration feeds
	// an encoder: the rule binds to encode-shaped functions anywhere
	// under internal/, and to every function of the codec package,
	// whose entire job is wire output.
	isCodec := lintutil.PkgPathHasSuffix(path, "internal/codec")

	lintutil.FuncBodies(pass.Files, func(name string, decl *ast.FuncDecl, body *ast.BlockStmt) {
		if decl == nil {
			return // literals are covered while walking their enclosing decl
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if inClockScope {
					checkCall(pass, n)
				}
			case *ast.RangeStmt:
				if inEncodeScope && (isCodec || isEncodeFunc(name)) {
					checkRange(pass, n)
				}
			}
			return true
		})
	})
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	callee, ok := lintutil.CalleeOf(pass.TypesInfo, call)
	if !ok || callee.RecvType != "" {
		return
	}
	switch callee.PkgPath {
	case "time":
		if bannedTime[callee.Name] {
			pass.Reportf(call.Pos(),
				"wall clock leaks into a deterministic package: time.%s breaks virtual-time replay; take the instant from the event clock instead",
				callee.Name)
		}
	case "math/rand", "math/rand/v2":
		// Package-level functions draw from the process-global,
		// randomly-seeded source. Methods on a seeded *rand.Rand have
		// RecvType "Rand" and fall through, and the constructors that
		// build such a generator are exactly what the fix looks like.
		if randConstructors[callee.Name] {
			return
		}
		pass.Reportf(call.Pos(),
			"global math/rand source is unseedable and nondeterministic: %s.%s breaks replayability; draw from a seeded *rand.Rand",
			callee.PkgPath, callee.Name)
	}
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if isKeyCollection(rng) {
		// `for k := range m { keys = append(keys, k) }` is the first
		// half of the prescribed collect-and-sort remedy; the slice,
		// not the map order, reaches the encoder.
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order is randomized per run: ranging over %s in an encode path cannot produce byte-identical output; collect and sort the keys first",
		lintutil.ExprString(rng.X))
}

// isKeyCollection reports whether the range body is exactly
// `x = append(x, k)` with k the range key: gathering keys to sort,
// not emitting output in map order.
func isKeyCollection(rng *ast.RangeStmt) bool {
	key, ok := rng.Key.(*ast.Ident)
	if !ok || rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		// append(dst, k...) spreads the key's bytes into output — that
		// is emission in map order, not collection.
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

func isEncodeFunc(name string) bool {
	for _, p := range encodePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
