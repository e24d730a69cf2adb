package core

import (
	"sync"
	"sync/atomic"
)

// forEachIndexed runs fn(0), fn(1), ..., fn(n-1) on up to workers
// goroutines. With one worker (or one item) it degenerates to the plain
// serial loop, including its stop-at-first-error behaviour. With more
// workers every index runs to completion and the reported error is the
// one with the lowest index, so the error a caller sees is independent
// of goroutine scheduling and matches what the serial path would have
// returned.
func forEachIndexed(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
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
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
