package construction

import (
	"fmt"
	"math/rand"

	"repro/internal/game"
	"repro/internal/gen"
)

// CycleState builds the Lemma 3.1 configuration: a cycle on n >= 2k+2
// vertices where player i buys the edge towards i+1, so "each player owns
// exactly one edge". It is an LKE for MAXNCG whenever α >= k−1, giving
// PoA = Ω(n/(1+α)).
func CycleState(n int) (*game.State, error) {
	if n < 3 {
		return nil, fmt.Errorf("construction: cycle needs n >= 3, got %d", n)
	}
	s := game.NewState(n)
	for i := 0; i < n; i++ {
		s.Buy(i, (i+1)%n)
	}
	return s, nil
}

// HighGirthState builds the Lemma 3.2 / Theorem 4.3 configuration: a
// q-regular graph with girth >= 2k+2 (so every player's view is a tree),
// with each edge owned by a uniformly random endpoint. It uses the exact
// projective-plane incidence graph when 2k+2 <= 6 and a prime q-1 exists,
// and the randomized high-girth generator otherwise (the substitution
// package gen's doc describes).
func HighGirthState(n, q, k int, rng *rand.Rand) (*game.State, error) {
	g, err := gen.RegularHighGirth(n, q, 2*k+2, rng, 200)
	if err != nil {
		return nil, err
	}
	return game.FromGraphRandomOwners(g, rng), nil
}

// ProjectivePlaneState builds the exact girth-6 member of the Lemma 3.2
// family (k = 2): the incidence graph of PG(2,q) with random edge owners.
func ProjectivePlaneState(q int, rng *rand.Rand) (*game.State, error) {
	g, err := gen.ProjectivePlaneIncidence(q)
	if err != nil {
		return nil, err
	}
	return game.FromGraphRandomOwners(g, rng), nil
}
