package graph

func (s *Scratch) Walk(src int, adj [][]int) {
	s.visit(src, 0) // want: a second caller of the step
	step := s.visit // want: the step as a method value
	queue, head := []int{src}, 0
	for ; head < len(queue); head++ { // want: a third loop on a queue head
		for _, w := range adj[queue[head]] {
			if !step(w, 1) {
				queue = append(queue, w)
			}
		}
	}
}
