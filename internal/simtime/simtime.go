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

// Pending returns the number of plain schedules, engine-wide, that have
// not fired, plus the number of armed timers.
func (c *Clock) Pending() int { return c.eng.Pending() }

// Executed returns the number of events the whole engine has fired.
func (c *Clock) Executed() uint64 { return c.eng.Executed() }

// Schedule queues fn to run after delay d. A negative delay is treated as
// zero. A plain schedule cannot be canceled; a callback that may need to
// be withdrawn or moved belongs on a Timer.
func (c *Clock) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.ScheduleAt(c.Now().Add(d), fn)
}

// ScheduleAt queues fn to run at absolute virtual time t. Times in the
// past are clamped to now: the simulation never moves backward.
func (c *Clock) ScheduleAt(t Time, fn func()) {
	if fn == nil {
		panic("simtime: ScheduleAt with nil function")
	}
	c.eng.scheduleAt(c, t, fn)
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

// Timer is a cancellable, re-armable callback: the engine's one handle
// on a scheduled event. Reset and Stop order events exactly as
// canceling the pending event and scheduling a new one would, but a
// timer re-armed for a later instant keeps its queued event: the
// engine re-files that event under the new key when it reaches it
// (DESIGN.md §11). The zero value is not usable; create one with
// NewTimer.
type Timer struct {
	view *Clock
	fn   func()
	// ev is the queued event carrying this timer, nil when none is.
	// Its key may be older, and never later, than the reserved key.
	ev    *event
	armed bool
	// when, shard and seq are the reserved key: the one the latest
	// Reset would have given a freshly scheduled event.
	when  Time
	shard int32
	seq   uint64
}

// NewTimer returns a disarmed timer that runs fn as view's shard each
// time it fires.
func NewTimer(view *Clock, fn func()) *Timer {
	if fn == nil {
		panic("simtime: NewTimer with nil function")
	}
	return &Timer{view: view, fn: fn}
}

// Reset arms the timer to fire after delay d, replacing any earlier
// deadline. A negative delay is treated as zero.
func (t *Timer) Reset(d Duration) {
	if d < 0 {
		d = 0
	}
	t.ResetAt(t.view.Now().Add(d))
}

// ResetAt arms the timer to fire at absolute virtual time at (clamped
// to now), replacing any earlier deadline.
func (t *Timer) ResetAt(at Time) { t.view.eng.resetTimer(t, at) }

// Stop disarms the timer; stopping a disarmed timer is a no-op.
// Pending stops counting the timer at once; the engine drops its
// queued event when it next reaches it.
func (t *Timer) Stop() {
	if t.armed {
		t.armed = false
		t.view.eng.live--
	}
}

// Armed reports whether the timer will fire: it was Reset since it last
// fired or was stopped.
func (t *Timer) Armed() bool { return t.armed }

// Due returns the instant the timer fires at. It is meaningful only
// while the timer is armed.
func (t *Timer) Due() Time { return t.when }

// Ticker repeatedly invokes a callback at a fixed period until stopped.
type Ticker struct {
	period Duration
	fn     func()
	tm     *Timer
	stop   bool
}

// NewTicker starts a ticker that calls fn every period, with the first
// call one period from now.
func NewTicker(c *Clock, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: non-positive ticker period %v", period))
	}
	t := &Ticker{period: period, fn: fn}
	t.tm = NewTimer(c, t.tick)
	t.tm.Reset(period)
	return t
}

func (t *Ticker) tick() {
	t.fn()
	if !t.stop {
		t.tm.Reset(t.period)
	}
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stop = true
	t.tm.Stop()
}
