package analysis

import (
	"go/ast"
)

// EpochLint guards the cache-reuse contract that PR 6's symmetry folding
// introduced: the graph has *two* change counters. Epoch() counts semantic
// mutations (links added/failed/rewired) and invalidates routes; Growth()
// counts folded-graph materializations, which relocate dense storage slots
// *without* bumping the epoch. A cache that keys slot-dependent state on the
// epoch alone (route caches, distance fields) will serve stale slot indices
// after a lazy materialization.
//
// In the packages that maintain such caches, every epoch equality check must
// live in a function that also consults the growth counter — or carry a
// //mixnet:allow explaining why growth is handled elsewhere (e.g. per-entry
// growth stamps, or the cached state is slot-free).
var EpochLint = &Analyzer{
	Name: "epochlint",
	Doc:  "epoch-keyed cache reuse must also consult the growth counter (or justify why not with //mixnet:allow)",
	Run:  runEpochLint,
}

// epochScopedPkgs are the packages that maintain epoch-keyed caches over
// graph state. flowsim/packetsim/netsim arena "epoch" stamps are unrelated
// generation counters and are deliberately out of scope.
var epochScopedPkgs = map[string]bool{
	"topo": true, "collective": true, "commplan": true,
	"trainsim": true, "scenario": true, "core": true,
}

func runEpochLint(pass *Pass) error {
	if !epochScopedPkgs[pkgBase(pass.Pkg.Path())] {
		return nil
	}
	inspect(pass, func(n ast.Node, stack []ast.Node) bool {
		if isTestFile(pass.Fset, n.Pos()) {
			return false
		}
		cmp, ok := n.(*ast.BinaryExpr)
		if !ok || (cmp.Op.String() != "==" && cmp.Op.String() != "!=") {
			return true
		}
		if !mentionsCounter(cmp.X, "epoch") && !mentionsCounter(cmp.Y, "epoch") {
			return true
		}
		fn := enclosingFuncNode(stack)
		if fn != nil && mentionsCounter(fn, "growth") {
			return true
		}
		pass.Reportf(cmp.Pos(), "epoch comparison reuses cached state without consulting the growth counter: folded-graph materialization moves storage slots without bumping the epoch; compare Growth() too, or //mixnet:allow with the reason growth is covered")
		return true
	})
	return nil
}

// mentionsCounter reports whether any identifier under n — a field, local,
// parameter, or nullary method like g.Epoch() — matches counter
// (ASCII case-insensitive).
func mentionsCounter(n ast.Node, counter string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && equalFold(id.Name, counter) {
			found = true
		}
		return !found
	})
	return found
}

// equalFold is a tiny ASCII case-insensitive comparison (avoids importing
// strings for one call site).
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
