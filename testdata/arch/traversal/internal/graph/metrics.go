package graph

func Girth(adj [][]int) int {
	queue, head, tail := make([]int, len(adj)), 0, 1
	for head < tail { // want
		head++
	}
	return len(queue)
}
