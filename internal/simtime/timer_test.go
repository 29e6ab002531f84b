package simtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// diffSide is one implementation driven by the timer differential test:
// the engine, or the eager reference model.
type diffSide interface {
	now() Time
	pending() int
	schedule(at Time, fn func())
	newTimer(fn func())
	resetAt(i int, at Time)
	stop(i int)
	runUntil(t Time)
	run()
}

type engineSide struct {
	c      *Clock
	timers []*Timer
}

func newEngineSide() *engineSide { return &engineSide{c: NewClock()} }

func (s *engineSide) now() Time                   { return s.c.Now() }
func (s *engineSide) pending() int                { return s.c.Pending() }
func (s *engineSide) schedule(at Time, fn func()) { s.c.ScheduleAt(at, fn) }
func (s *engineSide) newTimer(fn func())          { s.timers = append(s.timers, NewTimer(s.c, fn)) }
func (s *engineSide) resetAt(i int, at Time)      { s.timers[i].ResetAt(at) }
func (s *engineSide) stop(i int)                  { s.timers[i].Stop() }
func (s *engineSide) runUntil(t Time)             { s.c.RunUntil(t) }
func (s *engineSide) run()                        { s.c.Run() }

type refSide struct {
	c      refClock
	timers []*refTimer
}

func (s *refSide) now() Time                   { return s.c.now }
func (s *refSide) pending() int                { return len(s.c.pq) }
func (s *refSide) schedule(at Time, fn func()) { s.c.ScheduleAt(at, fn) }
func (s *refSide) newTimer(fn func()) {
	s.timers = append(s.timers, &refTimer{c: &s.c, fn: fn})
}
func (s *refSide) resetAt(i int, at Time) { s.timers[i].ResetAt(at) }
func (s *refSide) stop(i int)             { s.timers[i].Stop() }
func (s *refSide) runUntil(t Time)        { s.c.RunUntil(t) }
func (s *refSide) run()                   { s.c.Run() }

// timerProgram drives one side through a random program of plain
// schedules and timer Reset/Stop operations, issued from outside events
// and from inside timer and plain callbacks, and returns the log of
// what fired when. The program is a
// function of the seed and of what fires in which order, so two
// sides that agree on the order log identical programs.
func timerProgram(side diffSide, seed int64) string {
	const timers = 6
	rng := rand.New(rand.NewSource(seed))
	var log strings.Builder
	budget := 400
	nextID := 0
	// due mirrors each timer's deadline (clamped as the engine clamps),
	// so a Reset can pick the same, an earlier or a later instant.
	due := make([]Time, timers)
	armed := make([]bool, timers)
	var recent []Time // instants already used, for same-instant ties
	pick := func() Time {
		now := side.now()
		if len(recent) > 0 && rng.Intn(3) == 0 {
			at := recent[rng.Intn(len(recent))]
			if at < now {
				at = now
			}
			return at
		}
		spans := []Duration{0, 1, 900, 1 << tickShift, 5 * Microsecond, 300 * Microsecond,
			3 * Millisecond, 200 * Millisecond, 2 * Second, 90 * Second}
		d := spans[rng.Intn(len(spans))]
		if d > 1 {
			d = Duration(rng.Int63n(int64(d)))
		}
		at := now.Add(d)
		recent = append(recent, at)
		if len(recent) > 8 {
			recent = recent[1:]
		}
		return at
	}
	var ops func(n int)
	ops = func(n int) {
		for ; n > 0 && budget > 0; n-- {
			budget--
			switch op := rng.Intn(10); {
			case op < 3:
				id := nextID
				nextID++
				side.schedule(pick(), func() {
					fmt.Fprintf(&log, "s%d@%d/%d ", id, side.now(), side.pending())
					ops(rng.Intn(3))
				})
			case op < 8:
				i := rng.Intn(timers)
				at := pick()
				if armed[i] {
					switch rng.Intn(4) {
					case 0:
						at = due[i] // same instant as now armed
					case 1:
						if at = due[i] - Time(rng.Int63n(int64(Millisecond))); at < side.now() {
							at = side.now()
						}
					case 2:
						at = due[i] + Time(rng.Int63n(int64(Millisecond)))
					}
				}
				if at < side.now() {
					at = side.now()
				}
				due[i], armed[i] = at, true
				side.resetAt(i, at)
			default:
				i := rng.Intn(timers)
				armed[i] = false
				side.stop(i)
			}
		}
	}
	for i := 0; i < timers; i++ {
		i := i
		side.newTimer(func() {
			armed[i] = false
			fmt.Fprintf(&log, "t%d@%d/%d ", i, side.now(), side.pending())
			ops(rng.Intn(4))
		})
	}
	for round := 0; round < 6 && budget > 0; round++ {
		ops(1 + rng.Intn(8))
		fmt.Fprintf(&log, "| p%d ", side.pending())
		side.runUntil(side.now().Add(Duration(rng.Int63n(int64(300 * Millisecond)))))
		fmt.Fprintf(&log, "| now=%d p%d ", side.now(), side.pending())
	}
	side.run()
	fmt.Fprintf(&log, "| end now=%d p%d", side.now(), side.pending())
	return log.String()
}

// The timer re-key rule must order events exactly as the eager model:
// a Reset cancels and reschedules, a Stop cancels. Fire order, the
// pending count along the way and the clock after Run all agree on
// random programs run inside and outside events, with earlier, later
// and equal deadlines and same-instant ties.
func TestTimerMatchesEagerModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		ref := timerProgram(&refSide{}, seed)
		var got string
		withWatchdog(t, func() { got = timerProgram(newEngineSide(), seed) })
		if got != ref {
			t.Fatalf("seed %d: engine diverges from the eager model\nengine: %s\nmodel:  %s", seed, got, ref)
		}
	}
}

// The differential test must catch a re-key that files the event under
// a fresh sequence number instead of the one Reset reserved: events
// scheduled between the Reset and the re-file, due at the same instant,
// would then fire ahead of the timer.
func TestTimerDifferentialCatchesFreshSeqRefile(t *testing.T) {
	caught := 0
	for seed := int64(1); seed <= 300; seed++ {
		ref := timerProgram(&refSide{}, seed)
		side := newEngineSide()
		side.c.freshRefile = true
		var got string
		withWatchdog(t, func() { got = timerProgram(side, seed) })
		if got != ref {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("re-filing under a fresh seq went unnoticed on every seed")
	}
	t.Logf("fresh-seq re-file caught on %d of 300 seeds", caught)
}

// A timer re-armed for later keeps its queued event: the engine
// re-files it under the reserved key instead of the timer making a new
// event, and the re-file neither fires, counts in Executed, nor moves
// the clock.
func TestTimerResetLaterKeepsItsEvent(t *testing.T) {
	c := NewClock()
	var firedAt []Time
	tm := NewTimer(c, func() { firedAt = append(firedAt, c.Now()) })
	tm.Reset(Millisecond)
	first := tm.ev
	tm.Reset(5 * Millisecond)
	if tm.ev != first {
		t.Fatal("Reset to a later deadline made a new event")
	}
	if !tm.Armed() || tm.Due() != Time(5*Millisecond) || c.Pending() != 1 {
		t.Fatalf("Armed %v Due %v Pending %d, want true 5ms 1", tm.Armed(), tm.Due(), c.Pending())
	}
	c.RunUntil(Time(3 * Millisecond))
	if len(firedAt) != 0 || c.Executed() != 0 || c.Now() != Time(3*Millisecond) {
		t.Fatalf("re-file fired %v, Executed %d, now %v", firedAt, c.Executed(), c.Now())
	}
	tm.Reset(Millisecond) // earlier: the queued event is abandoned
	if tm.ev == first {
		t.Fatal("Reset to an earlier deadline kept the late event")
	}
	c.Run()
	if len(firedAt) != 1 || firedAt[0] != Time(4*Millisecond) || c.Executed() != 1 {
		t.Fatalf("fired at %v (Executed %d), want once at 4ms", firedAt, c.Executed())
	}
	if c.Now() != Time(4*Millisecond) {
		t.Fatalf("Run returned at %v, want 4ms: dropped events must not move the clock", c.Now())
	}
}

// Steady-state scheduling reuses fired events, and restarting a timer
// reuses its queued one: neither allocates.
func TestEngineSteadyStateAllocatesNothing(t *testing.T) {
	c := NewClock()
	fn := func() {}
	warm := func() {
		for i := 0; i < 64; i++ {
			c.Schedule(Duration(i)*Microsecond, fn)
		}
		c.Run()
	}
	warm()
	if n := testing.AllocsPerRun(100, func() {
		c.Schedule(Microsecond, fn)
		c.Schedule(200*Millisecond, fn)
		c.Run()
	}); n != 0 {
		t.Fatalf("schedule and fire: %v allocs per run, want 0", n)
	}
	tm := NewTimer(c, fn)
	tm.Reset(200 * Millisecond)
	if n := testing.AllocsPerRun(1000, func() {
		tm.Stop()
		tm.Reset(200 * Millisecond)
		c.Schedule(Microsecond, fn)
		c.Step()
	}); n != 0 {
		t.Fatalf("Timer.Reset: %v allocs per run, want 0", n)
	}
}
