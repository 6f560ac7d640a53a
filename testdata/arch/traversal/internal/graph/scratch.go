package graph

type Scratch struct{ queue []int }

func (s *Scratch) visit(v, d int) bool { s.queue = append(s.queue, v); return false }

// With a third loop on a queue head in the package, every such loop is
// reported, this one included.
func (s *Scratch) bfs(src int, adj [][]int) {
	tail := 0
	if s.visit(src, 0) {
		return
	}
	tail++
	for head := 0; head < tail; head++ { // want
		for _, w := range adj[s.queue[head]] {
			if s.visit(w, 1) {
				return
			}
		}
	}
}
