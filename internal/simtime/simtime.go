// Package simtime provides the virtual clock and event queue that drive
// the entire NiLiCon simulation.
//
// All simulated activity — container execution, packet delivery, disk
// writes, checkpoint state collection — is expressed as events on a
// Clock. The simulation is therefore deterministic: events fire in
// (time, scheduling shard, insertion order) sequence, and the only
// source of randomness is explicitly seeded generators (see NewRand).
//
// There is one engine (see shard.go): a single hierarchical timing
// wheel ordered by (when, shard, seq). A Clock is a view onto that
// engine bound to one logical shard; views come from
// ShardedClock.Root/NewShard, and NewClock is shorthand for the root
// view of a fresh engine.
package simtime

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration re-exports time.Duration; all simulated latencies use it so
// call sites read naturally (e.g. 30*time.Millisecond).
type Duration = time.Duration

// Common duration constants re-exported for convenience.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. It is returned by Schedule so callers
// can cancel it before it fires.
type Event struct {
	when Time
	// seq is the scheduling shard's counter; (when, shard, seq) is the
	// engine's total order.
	seq   uint64
	shard int32 // scheduling shard
	// target is the shard of the view the event was scheduled on; the
	// event runs as that shard, so its own schedules are keyed by it.
	target int32
	fn     func() // nil once fired or canceled
	cancel bool
	eng    *ShardedClock
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.cancel }

// When returns the virtual time at which the event fires (or would have
// fired, if canceled).
func (e *Event) When() Time { return e.when }

// Cancel prevents the event from firing. Canceling an event that already
// fired is a no-op. Pending() stops counting the event and its closure
// is released at once; the engine drops the event itself lazily when
// its slot drains.
func (e *Event) Cancel() {
	if e.fn == nil {
		return
	}
	e.cancel = true
	e.fn = nil
	e.eng.live--
}

// fire runs the event's callback, first dropping it so a fired event
// neither cancels nor keeps its closure reachable from the engine's slab.
func (e *Event) fire() {
	fn := e.fn
	e.fn = nil
	fn()
}

// Clock is a view onto the engine, bound to one logical shard. The zero
// value is not usable; create one with NewClock, or obtain a view with
// ShardedClock.Root/NewShard.
type Clock struct {
	eng   *ShardedClock
	shard int32
}

// NewClock returns the root view of a fresh engine, at virtual time
// zero with an empty queue.
func NewClock() *Clock { return NewEngine().Root() }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.eng.now }

// Shard returns the shard ID this clock schedules onto: 0 for a root
// view, the shard's ID for views from NewShard.
func (c *Clock) Shard() int { return int(c.shard) }

// Pending returns the number of scheduled events, engine-wide, that have
// neither fired nor been canceled.
func (c *Clock) Pending() int { return c.eng.Pending() }

// Executed returns the number of events the whole engine has fired.
func (c *Clock) Executed() uint64 { return c.eng.Executed() }

// Schedule queues fn to run after delay d. A negative delay is treated as
// zero. The returned Event may be canceled.
func (c *Clock) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return c.ScheduleAt(c.Now().Add(d), fn)
}

// ScheduleAt queues fn to run at absolute virtual time t. Times in the
// past are clamped to now: the simulation never moves backward.
func (c *Clock) ScheduleAt(t Time, fn func()) *Event {
	if fn == nil {
		panic("simtime: ScheduleAt with nil function")
	}
	return c.eng.scheduleAt(c, t, fn)
}

// Step fires the next event, advancing the clock to its time. It returns
// false when the queue is empty.
func (c *Clock) Step() bool { return c.eng.step() }

// Run fires events until the queue is empty or Stop is called.
func (c *Clock) Run() { c.eng.Run() }

// RunUntil fires events with time <= t, then sets the clock to t. Events
// scheduled after t remain queued. An event exactly at t fires; the
// clock always lands exactly on t even when the queue goes empty early
// or the head events were canceled.
func (c *Clock) RunUntil(t Time) { c.eng.RunUntil(t) }

// RunFor is shorthand for RunUntil(Now().Add(d)).
func (c *Clock) RunFor(d Duration) { c.RunUntil(c.Now().Add(d)) }

// Stop makes a Run/RunUntil in progress return after the current event.
func (c *Clock) Stop() { c.eng.Stop() }

// NewRand returns a deterministic random generator for the given seed.
// All simulation randomness must come from seeded generators so that
// experiments are exactly reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Ticker repeatedly invokes a callback at a fixed period until stopped.
type Ticker struct {
	clock  *Clock
	period Duration
	fn     func()
	ev     *Event
	stop   bool
}

// NewTicker starts a ticker that calls fn every period, with the first
// call one period from now.
func NewTicker(c *Clock, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: non-positive ticker period %v", period))
	}
	t := &Ticker{clock: c, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.clock.Schedule(t.period, func() {
		if t.stop {
			return
		}
		t.fn()
		if !t.stop {
			t.arm()
		}
	})
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stop = true
	if t.ev != nil {
		t.ev.Cancel()
	}
}
