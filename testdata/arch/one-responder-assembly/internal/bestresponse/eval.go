package bestresponse

import "sync"

// Evaluator owns a responder's scratch.
type Evaluator struct{}

// NewEvaluator is allowed in its own package.
func NewEvaluator() *Evaluator { return &Evaluator{} }

var pool = sync.Pool{New: func() any { return NewEvaluator() }}
