// Package fifo is the one first-in first-out queue of the simulator:
// the epoch pipeline's runs and pending events, the transfer
// scheduler's per-flow requests, the traffic replayer's per-client
// queues and the workload clients' requests awaiting replies.
package fifo

// Queue is a first-in first-out queue; items[head:] is the queue. The
// zero value is an empty queue. Popping leaves the array in place, an
// emptied queue starts again at its array's front, and a queue whose
// consumed prefix is at least half its array moves back to the front,
// so a queue that never empties keeps a bounded array instead of
// re-slicing forward into a new one.
type Queue[T any] struct {
	items []T
	head  int
}

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) { q.items = append(q.items, v) }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Peek returns the head item; the queue must not be empty.
func (q *Queue[T]) Peek() T { return q.items[q.head] }

// All returns the queued items, oldest first; the slice is valid until
// the next Push, Pop or Reset.
func (q *Queue[T]) All() []T { return q.items[q.head:] }

// Pop removes and returns the head item; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	switch {
	case q.head == len(q.items):
		q.items, q.head = q.items[:0], 0
	case q.head >= 16 && 2*q.head >= len(q.items):
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	return v
}

// Reset empties the queue, keeping its array.
func (q *Queue[T]) Reset() {
	clear(q.items)
	q.items, q.head = q.items[:0], 0
}
