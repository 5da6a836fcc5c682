package determinism_test

import (
	"testing"

	"piersearch/internal/lint/determinism"
	"piersearch/internal/lint/linttest"
)

func TestDeterminism(t *testing.T) {
	linttest.Run(t, "testdata/src", determinism.Analyzer,
		"p/internal/scale",
		"p/internal/simnet",
		"p/internal/codec",
		"p/internal/other",
	)
}
