package graph

import "sync"

func PowerStep(rows [][]uint64) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // want
		defer wg.Done()
	}()
	go fanOut(rows, &wg) // want: a named function, not a literal
	wg.Wait()
}

func fanOut(rows [][]uint64, wg *sync.WaitGroup) { wg.Done() }
