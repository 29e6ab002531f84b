package simtime

import (
	"container/heap"
	"testing"
	"time"
)

// refClock is the reference semantics the engine is checked against:
// one binary heap ordered by (when, seq), one insertion counter,
// canceled events removed eagerly, and a timer that is an eager
// cancel-and-reschedule. It exists only for the equivalence tests.
type refClock struct {
	now Time
	seq uint64
	pq  refHeap
}

type refEvent struct {
	when   Time
	seq    uint64
	fn     func()
	index  int // heap index; -1 when not queued
	cancel bool
}

// refHeap orders events by (when, seq).
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

func (c *refClock) ScheduleAt(t Time, fn func()) *refEvent {
	if t < c.now {
		t = c.now
	}
	e := &refEvent{when: t, seq: c.seq, fn: fn, index: -1}
	c.seq++
	heap.Push(&c.pq, e)
	return e
}

func (c *refClock) Schedule(d Duration, fn func()) *refEvent {
	if d < 0 {
		d = 0
	}
	return c.ScheduleAt(c.now.Add(d), fn)
}

func (c *refClock) Cancel(e *refEvent) {
	if !e.cancel && e.index >= 0 {
		heap.Remove(&c.pq, e.index)
	}
	e.cancel = true
}

func (c *refClock) fireNext() {
	e := heap.Pop(&c.pq).(*refEvent)
	c.now = e.when
	e.fn()
}

func (c *refClock) Run() {
	for len(c.pq) > 0 {
		c.fireNext()
	}
}

// RunUntil fires every event due at or before t, then lands on t.
func (c *refClock) RunUntil(t Time) {
	for len(c.pq) > 0 && c.pq[0].when <= t {
		c.fireNext()
	}
	if c.now < t {
		c.now = t
	}
}

// refTimer is the eager timer: Reset cancels the queued event and
// schedules a new one, Stop cancels it.
type refTimer struct {
	c  *refClock
	fn func()
	ev *refEvent
}

func (t *refTimer) ResetAt(at Time) {
	t.Stop()
	t.ev = t.c.ScheduleAt(at, func() {
		t.ev = nil
		t.fn()
	})
}

func (t *refTimer) Stop() {
	if t.ev != nil {
		t.c.Cancel(t.ev)
		t.ev = nil
	}
}

// withWatchdog runs fn and fails the test if it has not returned within
// ten seconds of wall time: an engine that stops firing events never
// returns at all.
func withWatchdog(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not return within 10s of wall time")
	}
}
