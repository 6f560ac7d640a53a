package dynamics

import "repro/internal/bestresponse"

// Responder is a move rule.
type Responder func(s any, u, k int, alpha float64) bestresponse.Response

// NewMaxResponder is the one place the MAX rule is written.
func NewMaxResponder() func() *bestresponse.Evaluator { return bestresponse.NewEvaluator }
