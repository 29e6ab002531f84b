// Package simtime provides the virtual clock and event queue that drive
// the entire NiLiCon simulation.
//
// All simulated activity — container execution, packet delivery, disk
// writes, checkpoint state collection — is expressed as events on one
// Clock. The simulation is therefore deterministic: events fire in
// (time, scheduling order) sequence, and the only source of randomness
// is explicitly seeded generators (see NewRand).
//
// The Clock is the engine (see engine.go): a single hierarchical
// timing wheel ordered by (when, seq), where seq is one engine-wide
// counter fixed at schedule time.
package simtime

import (
	"fmt"
	"math/rand"
	"time"

	"nilicon/internal/pool"
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

// Clock is the simulation engine: one timing wheel (engine.go) plus
// the key-sorted run of the level-0 slot being consumed. Every
// simulated host, link and driver schedules on the one Clock. The zero
// value is not usable; create one with NewClock.
//
// Invariant: wheel events have when > runLast; inserts at or before
// runLast splice into the run's unconsumed tail.
type Clock struct {
	now Time
	// seq is the next event key's tie-breaker; (when, seq) is the
	// engine's total order.
	seq      uint64
	stopped  bool
	running  bool
	executed uint64
	// live counts plain schedules that have not fired plus armed
	// timers (Pending).
	live int64

	wh     wheel
	run    []*event
	runPos int
	// runLast is the last instant of the level-0 slot the run holds;
	// -1 before the first slot is pulled.
	runLast Time
	// events recycles fired and dropped events.
	events pool.Free[event]
	// freshRefile is a deliberate defect for the engine's differential
	// test: a re-keyed timer takes a fresh sequence number instead of
	// the one Reset reserved. Never set outside that test.
	freshRefile bool
}

// NewClock returns an engine at virtual time zero with an empty queue.
func NewClock() *Clock {
	var slab []event // fresh events are cut from slab chunks
	return &Clock{runLast: -1, events: pool.New(func() *event {
		if len(slab) == 0 {
			slab = make([]event, slabChunk)
		}
		e := &slab[0]
		slab = slab[1:]
		return e
	})}
}

// ShardedClock is Clock under its old name, which the benchmark module
// (bench/) still uses.
type ShardedClock = Clock

// NewShardedClock is NewClock under its old name, whose argument
// counted event wheels. The benchmark module (bench/) is its last
// caller. The engine has exactly one wheel, so any n other than 1
// panics.
func NewShardedClock(n int) *Clock {
	if n != 1 {
		panic(fmt.Sprintf("simtime: NewShardedClock(%d): the engine has exactly one wheel", n))
	}
	return NewClock()
}

// Root returns c itself: there is one clock. The benchmark module
// (bench/) is its last caller.
func (c *Clock) Root() *Clock { return c }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Pending returns the number of plain schedules that have not fired
// plus the number of armed timers.
func (c *Clock) Pending() int { return int(c.live) }

// Executed returns the total number of events fired.
func (c *Clock) Executed() uint64 { return c.executed }

// Schedule queues fn to run after delay d. A negative delay is treated as
// zero. A plain schedule cannot be canceled; a callback that may need to
// be withdrawn or moved belongs on a Timer.
func (c *Clock) Schedule(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.ScheduleAt(c.now.Add(d), fn)
}

// ScheduleAt queues fn to run at absolute virtual time t. Times in the
// past are clamped to now: the simulation never moves backward.
func (c *Clock) ScheduleAt(t Time, fn func()) {
	if fn == nil {
		panic("simtime: ScheduleAt with nil function")
	}
	if t < c.now {
		t = c.now
	}
	e := c.events.Get()
	*e = event{when: t, seq: c.seq, fn: fn}
	c.seq++
	c.live++
	c.file(e)
}

// Step fires the next event, advancing the clock to its time. It returns
// false when the queue is empty.
func (c *Clock) Step() bool {
	e := c.head()
	if e == nil {
		return false
	}
	c.fire(e)
	return true
}

// Run fires events until the queue is empty or Stop is called.
func (c *Clock) Run() { c.drive(0, false) }

// RunUntil fires events with time <= t, then sets the clock to t. Events
// scheduled after t remain queued. An event exactly at t fires; the
// clock always lands exactly on t even when the queue goes empty early
// or the head events were canceled.
func (c *Clock) RunUntil(t Time) { c.drive(t, true) }

// RunFor is shorthand for RunUntil(Now().Add(d)).
func (c *Clock) RunFor(d Duration) { c.RunUntil(c.now.Add(d)) }

// Stop makes a Run/RunUntil in progress return after the current event.
func (c *Clock) Stop() { c.stopped = true }

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
	c  *Clock
	fn func()
	// ev is the queued event carrying this timer, nil when none is.
	// Its key may be older, and never later, than the reserved key.
	ev    *event
	armed bool
	// when and seq are the reserved key: the one the latest Reset
	// would have given a freshly scheduled event.
	when Time
	seq  uint64
}

// NewTimer returns a disarmed timer that runs fn on c each time it
// fires.
func NewTimer(c *Clock, fn func()) *Timer {
	if fn == nil {
		panic("simtime: NewTimer with nil function")
	}
	return &Timer{c: c, fn: fn}
}

// Reset arms the timer to fire after delay d, replacing any earlier
// deadline. A negative delay is treated as zero.
func (t *Timer) Reset(d Duration) {
	if d < 0 {
		d = 0
	}
	t.ResetAt(t.c.now.Add(d))
}

// ResetAt arms the timer to fire at absolute virtual time at (clamped
// to now), replacing any earlier deadline.
func (t *Timer) ResetAt(at Time) { t.c.resetTimer(t, at) }

// Stop disarms the timer; stopping a disarmed timer is a no-op.
// Pending stops counting the timer at once; the engine drops its
// queued event when it next reaches it.
func (t *Timer) Stop() {
	if t.armed {
		t.armed = false
		t.c.live--
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
