// Package atest serves other packages' tests; its exports are not checked.
package atest

// Helper is called only from tests.
func Helper() {}
