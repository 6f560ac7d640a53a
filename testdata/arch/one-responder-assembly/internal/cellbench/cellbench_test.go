package cellbench

import (
	"testing"

	"repro/internal/bestresponse"
)

// A test may hold an Evaluator of its own.
func TestEvaluator(t *testing.T) {
	_ = bestresponse.NewEvaluator()
}
