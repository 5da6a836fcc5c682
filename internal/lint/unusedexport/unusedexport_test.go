package unusedexport_test

import (
	"testing"

	"piersearch/internal/lint/linttest"
	"piersearch/internal/lint/unusedexport"
)

func TestUnusedexport(t *testing.T) {
	linttest.RunModule(t, "testdata/src", unusedexport.Name, unusedexport.Check,
		"m/internal/a", "m/internal/b", "m/internal/atest", "m/cmd/c")
}
