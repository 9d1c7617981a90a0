package colstore

import (
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(0..n-1) on up to workers goroutines, handing out
// indices from one atomic counter, and returns once every call has. With
// workers ≤ 1, or one index, it calls fn in order on the calling goroutine
// and starts none. fn must write only to its own index's output slots.
func ParallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
