package main

import (
	"fmt"

	br "repro/internal/bestresponse"
	"repro/internal/dynamics"
	"repro/internal/game"
)

// A command that builds the MAX rule by hand to read its Evaluator is a
// second copy of the rule, under any import name.
func main() {
	cfg := dynamics.DefaultConfig(game.Max, 1, 3)
	scan := br.NewEvaluator() // want
	cfg.Responder = scan.MaxBestResponse
	fmt.Println(cfg.K)
}
