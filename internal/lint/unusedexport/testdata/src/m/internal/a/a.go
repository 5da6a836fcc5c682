package a

import "io"

// Used is called from package b.
func Used() int { return 1 }

// TestOnly is called only from a_test.go, which the check does not read.
func TestOnly() int { return 2 } // want `exported func TestOnly has no non-test use`

// Unused is referenced nowhere.
var Unused = 3 // want `exported var Unused has no non-test use`

// Limit is read by package b.
const Limit = 4

// Recur calls only itself, which is no use.
func Recur(n int) int { // want `exported func Recur has no non-test use`
	if n == 0 {
		return 0
	}
	return Recur(n - 1)
}

// Lonely is named only by its own method's receiver.
type Lonely struct{} // want `exported type Lonely has no non-test use`

func (Lonely) m() {}

// T is named by package b.
type T struct{}

// Close satisfies io.Closer, an interface of an imported package.
func (T) Close() error { return nil }

// Len satisfies Sizer, an interface of the module.
func (T) Len() int { return 0 }

// Orphan satisfies no interface and has no caller.
func (T) Orphan() {} // want `exported method T.Orphan has no non-test use`

// Sizer is named by package b.
type Sizer interface{ Len() int }

// Hook stays for tests in other packages.
//
//lint:allow unusedexport tests of other packages call it
func Hook() {}

var _ io.Closer = T{}
