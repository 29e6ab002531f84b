package fifo

import "testing"

// TestQueueKeepsOrderInABoundedArray pushes two items for every pop, then
// drains, and checks that items leave in arrival order and that a queue
// that never empties compacts instead of growing past twice its length.
func TestQueueKeepsOrderInABoundedArray(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for i := 0; i < 1000; i++ {
		q.Push(next)
		next++
		if i%2 == 1 {
			if got := q.Pop(); got != want {
				t.Fatalf("pop %d = %d, want %d", want, got, want)
			}
			want++
		}
		if q.Len() > 16 && len(q.items) > 2*q.Len()+1 {
			t.Fatalf("after %d pushes: array %d for %d queued", i+1, len(q.items), q.Len())
		}
	}
	if q.Peek() != want || q.All()[0] != want || len(q.All()) != q.Len() {
		t.Fatalf("head %d, All()[0] %d, %d of %d: want head %d", q.Peek(), q.All()[0], len(q.All()), q.Len(), want)
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain: pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next || q.head != 0 || len(q.items) != 0 {
		t.Fatalf("drained %d of %d; head %d, array %d", want, next, q.head, len(q.items))
	}
	q.Push(1)
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Reset left %d items", q.Len())
	}
}
