// Package unusedexport checks that internal/ exports nothing only tests
// call.
//
// # Invariant
//
// Packages under internal/ cannot be imported from outside the module,
// so an exported identifier there that no non-test file of the module
// references is dead by construction: its only callers are its own
// tests, which then pin behaviour no program has. Such exports
// accumulate quietly — a feature loses its last caller, and its API and
// tests stay behind.
//
// # What it reports
//
// Every exported func, method, type, var and const declared in a
// non-main package under internal/ that no non-test file anywhere in the
// module references. A declaration's references to itself (recursion,
// a type naming itself) and a method's receiver do not count as uses.
//
// Exempt:
//
//   - a method whose receiver type implements an interface with a method
//     of that name, declared in the module or in a package the module
//     imports (plan.Operator, dht.Storage, heap.Interface, io.Closer,
//     error, fmt.Stringer): it is called through the interface, which no
//     use records;
//   - packages whose name ends in "test" (dhttest, linttest), which exist
//     to serve other packages' tests.
//
// The set of uses always comes from the whole module, whatever packages
// are checked: piervet loads ./... beside its targets, so
// `piervet ./internal/pier` judges pier by every caller in the module.
// The check therefore runs once over all loaded packages instead of as a
// per-package Analyzer.
//
// A helper that only its own package's tests need belongs in that
// package's export_test.go.
//
// # Suppressing
//
// A hook that tests of other packages need cannot live in export_test.go,
// and the paper's numbered equations stay as the model's API. Both carry
// the directive on the line above the declaration:
//
//	//lint:allow unusedexport the store restart tests republish with it
//	func (n *Node) Republish() (int, error) {
package unusedexport
