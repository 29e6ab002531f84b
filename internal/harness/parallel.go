package harness

import "sync/atomic"

// Jobs is the worker-pool width for experiments that fan out over many
// independent simulations (the chaos sweep, the Table I ladder, the
// pipeline ablation). 0 or 1 runs serially; the CLI's
// -j flag sets it. Each seeded DES run stays single-threaded and
// deterministic — parallelism is only across runs — and results are
// always collected in a fixed order, so all output is byte-identical
// regardless of Jobs.
var Jobs = 1

// runIndexed executes fn(i) for every i in [0,n) on min(jobs,n) workers
// and calls collect(i) in strict index order as results become
// available. fn must touch only state owned by index i; collect runs on
// the calling goroutine, so progress output and aggregation stay
// deterministic. With jobs <= 1 everything runs inline, preserving the
// serial interleaving exactly.
func runIndexed(n, jobs int, fn func(int), collect func(int)) {
	if jobs <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
			if collect != nil {
				collect(i)
			}
		}
		return
	}
	if jobs > n {
		jobs = n
	}
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next int64
	for w := 0; w < jobs; w++ {
		go func() {
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
				close(done[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-done[i]
		if collect != nil {
			collect(i)
		}
	}
}
