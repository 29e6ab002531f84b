package simtime

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock Now() = %v, want 0", c.Now())
	}
	if c.Pending() != 0 {
		t.Fatalf("new clock Pending() = %d, want 0", c.Pending())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	c := NewClock()
	fired := Time(-1)
	c.Schedule(5*time.Millisecond, func() { fired = c.Now() })
	c.Run()
	if fired != Time(5*time.Millisecond) {
		t.Fatalf("event fired at %v, want 5ms", fired)
	}
	if c.Now() != Time(5*time.Millisecond) {
		t.Fatalf("clock at %v after run, want 5ms", c.Now())
	}
}

func TestEventOrderingByTime(t *testing.T) {
	c := NewClock()
	var order []int
	c.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	c.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	c.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	c.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakByInsertionOrder(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	c.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events out of insertion order: %v", order)
		}
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	c := NewClock()
	c.Schedule(time.Millisecond, func() {
		c.Schedule(-5*time.Second, func() {
			if c.Now() != Time(time.Millisecond) {
				t.Errorf("negative-delay event at %v, want now (1ms)", c.Now())
			}
		})
	})
	c.Run()
}

func TestScheduleAtPastClampedToNow(t *testing.T) {
	c := NewClock()
	c.Schedule(10*time.Millisecond, func() {
		c.ScheduleAt(Time(2*time.Millisecond), func() {
			if c.Now() != Time(10*time.Millisecond) {
				t.Errorf("past event fired at %v, want 10ms", c.Now())
			}
		})
	})
	c.Run()
}

func TestCancel(t *testing.T) {
	c := NewClock()
	fired := false
	tm := NewTimer(c, func() { fired = true })
	tm.Reset(time.Millisecond)
	if c.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", c.Pending())
	}
	tm.Stop()
	if c.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d, want 0 (stopped timers must not be counted)", c.Pending())
	}
	c.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Armed() {
		t.Fatal("Armed() = true after Stop")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	c := NewClock()
	tm := NewTimer(c, func() {})
	tm.Reset(time.Millisecond)
	c.Run()
	if tm.Armed() {
		t.Fatal("timer still armed after it fired")
	}
	tm.Stop() // must not panic
	if c.Pending() != 0 || tm.Armed() {
		t.Fatalf("stop after fire: Pending = %d, Armed = %v; want 0, false", c.Pending(), tm.Armed())
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	c := NewClock()
	var fired []int
	c.Schedule(10*time.Millisecond, func() { fired = append(fired, 1) })
	c.Schedule(20*time.Millisecond, func() { fired = append(fired, 2) })
	c.Schedule(20*time.Millisecond+1, func() { fired = append(fired, 3) })
	c.Schedule(30*time.Millisecond, func() { fired = append(fired, 4) })
	c.RunUntil(Time(20 * time.Millisecond))
	if len(fired) != 2 {
		t.Fatalf("RunUntil(20ms) fired %v, want events 1,2 (the event exactly at t fires, the one 1ns later does not)", fired)
	}
	if c.Now() != Time(20*time.Millisecond) {
		t.Fatalf("clock = %v, want exactly 20ms", c.Now())
	}
	c.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events not fired: %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	c := NewClock()
	c.RunUntil(Time(time.Second))
	if c.Now() != Time(time.Second) {
		t.Fatalf("idle RunUntil left clock at %v, want 1s", c.Now())
	}
}

func TestRunForRelative(t *testing.T) {
	c := NewClock()
	c.RunFor(100 * time.Millisecond)
	c.RunFor(100 * time.Millisecond)
	if c.Now() != Time(200*time.Millisecond) {
		t.Fatalf("clock = %v after two RunFor(100ms), want 200ms", c.Now())
	}
}

func TestStopInterruptsRun(t *testing.T) {
	c := NewClock()
	count := 0
	for i := 0; i < 10; i++ {
		c.Schedule(time.Duration(i+1)*time.Millisecond, func() {
			count++
			if count == 3 {
				c.Stop()
			}
		})
	}
	c.Run()
	if count != 3 {
		t.Fatalf("Stop did not interrupt: %d events fired, want 3", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	c := NewClock()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			c.Schedule(time.Microsecond, recurse)
		}
	}
	c.Schedule(0, recurse)
	c.Run()
	if depth != 100 {
		t.Fatalf("nested scheduling depth = %d, want 100", depth)
	}
	if c.Now() != Time(99*time.Microsecond) {
		t.Fatalf("clock = %v, want 99µs", c.Now())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	c := NewClock()
	var times []Time
	tk := NewTicker(c, 30*time.Millisecond, func() { times = append(times, c.Now()) })
	c.RunUntil(Time(100 * time.Millisecond))
	tk.Stop()
	c.Run()
	if len(times) != 3 {
		t.Fatalf("ticker fired %d times in 100ms at 30ms period, want 3 (%v)", len(times), times)
	}
	for i, ts := range times {
		want := Time((i + 1) * 30 * int(time.Millisecond))
		if ts != want {
			t.Fatalf("tick %d at %v, want %v", i, ts, want)
		}
	}
}

func TestTickerStopPreventsFutureTicks(t *testing.T) {
	c := NewClock()
	n := 0
	tk := NewTicker(c, time.Millisecond, func() { n++ })
	c.RunUntil(Time(5500 * time.Microsecond))
	tk.Stop()
	c.RunUntil(Time(time.Second))
	if n != 5 {
		t.Fatalf("ticker fired %d times, want 5 (stopped after 5.5ms)", n)
	}
}

func TestTickerPanicsOnNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTicker with zero period did not panic")
		}
	}()
	NewTicker(NewClock(), 0, func() {})
}

func TestScheduleNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	NewClock().Schedule(time.Second, nil)
}

func TestTimerMisusePanics(t *testing.T) {
	reentrant := NewClock()
	reentrant.Schedule(time.Second, func() { reentrant.Run() })
	for name, fn := range map[string]func(){
		"NewTimer(nil)": func() { NewTimer(NewClock(), nil) },
		"reentrant Run": func() { reentrant.Run() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestTimerPastDeadlineFiresNow: a timer reset with a negative delay or
// to an instant already past fires at the current instant.
func TestTimerPastDeadlineFiresNow(t *testing.T) {
	c := NewClock()
	c.RunFor(time.Second)
	var fired []Time
	tm := NewTimer(c, func() { fired = append(fired, c.Now()) })
	tm.Reset(-time.Millisecond)
	c.RunFor(time.Millisecond)
	tm.ResetAt(0)
	c.RunFor(time.Millisecond)
	if want := []Time{Time(time.Second), Time(time.Second + time.Millisecond)}; !slices.Equal(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(10 * time.Millisecond)
	b := a.Add(5 * time.Millisecond)
	if b != Time(15*time.Millisecond) {
		t.Fatalf("Add: got %v", b)
	}
	if b.Sub(a) != 5*time.Millisecond {
		t.Fatalf("Sub: got %v", b.Sub(a))
	}
	if s := Time(1500 * time.Millisecond).Seconds(); s != 1.5 {
		t.Fatalf("Seconds: got %v", s)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same-seed generators diverged")
		}
	}
	cgen := NewRand(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRand(42).Int63() != cgen.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max delay.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		c := NewClock()
		var fired []Time
		var maxT Time
		for _, d := range delaysMs {
			dur := time.Duration(d) * time.Microsecond
			if Time(dur) > maxT {
				maxT = Time(dur)
			}
			c.Schedule(dur, func() { fired = append(fired, c.Now()) })
		}
		c.Run()
		if len(fired) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return c.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: stopping an arbitrary subset of timers fires exactly the
// complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		c := NewClock()
		fired := make(map[int]bool)
		timers := make([]*Timer, len(delays))
		for i, d := range delays {
			i := i
			timers[i] = NewTimer(c, func() { fired[i] = true })
			timers[i].Reset(time.Duration(d) * time.Microsecond)
		}
		canceled := make(map[int]bool)
		for i, tm := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				tm.Stop()
				canceled[i] = true
			}
		}
		c.Run()
		for i := range delays {
			if canceled[i] == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Regression: Stop must stop counting the timer immediately so
// Pending() does not overreport — long chaos runs used to accumulate
// dead entries until they drained.
func TestCancelRemovesFromQueue(t *testing.T) {
	c := NewClock()
	timers := make([]*Timer, 100)
	for i := range timers {
		timers[i] = NewTimer(c, func() {})
		timers[i].Reset(time.Duration(i+1) * time.Millisecond)
	}
	if c.Pending() != 100 {
		t.Fatalf("Pending = %d, want 100", c.Pending())
	}
	for i, tm := range timers {
		if i%2 == 0 {
			tm.Stop()
		}
	}
	if c.Pending() != 50 {
		t.Fatalf("Pending after stopping half = %d, want 50 (stopped timers must be uncounted eagerly)", c.Pending())
	}
	fired := 0
	c.Schedule(0, func() {}) // repopulate ordering stress
	for c.Step() {
		fired++
	}
	if fired != 51 {
		t.Fatalf("fired %d events, want 51", fired)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", c.Pending())
	}
}

func TestCancelDoubleIsNoop(t *testing.T) {
	c := NewClock()
	tm := NewTimer(c, func() {})
	tm.Reset(time.Millisecond)
	tm.Stop()
	tm.Stop() // a second stop must not panic or corrupt the count
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", c.Pending())
	}
}

// RunUntil boundary cases: an event exactly at t fires, a canceled head
// neither fires nor stalls the boundary, and an empty queue still lands
// the clock exactly on t.
func TestRunUntilEventExactlyAtBoundary(t *testing.T) {
	c := NewClock()
	fired := false
	c.Schedule(20*time.Millisecond, func() { fired = true })
	c.RunUntil(Time(20 * time.Millisecond))
	if !fired {
		t.Fatal("event exactly at RunUntil boundary did not fire")
	}
	if c.Now() != Time(20*time.Millisecond) {
		t.Fatalf("clock = %v, want exactly 20ms", c.Now())
	}
}

func TestRunUntilCanceledHead(t *testing.T) {
	c := NewClock()
	head := NewTimer(c, func() { t.Error("stopped head fired") })
	head.Reset(5 * time.Millisecond)
	var firedAt Time
	c.Schedule(10*time.Millisecond, func() { firedAt = c.Now() })
	head.Stop()
	c.RunUntil(Time(15 * time.Millisecond))
	if firedAt != Time(10*time.Millisecond) {
		t.Fatalf("live event fired at %v, want 10ms", firedAt)
	}
	if c.Now() != Time(15*time.Millisecond) {
		t.Fatalf("clock = %v, want exactly 15ms after canceled head", c.Now())
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", c.Pending())
	}
}

func TestRunUntilEmptyQueueLandsOnT(t *testing.T) {
	c := NewClock()
	c.Schedule(time.Millisecond, func() {})
	c.RunUntil(Time(2 * time.Millisecond))
	c.RunUntil(Time(7 * time.Millisecond)) // queue now empty
	if c.Now() != Time(7*time.Millisecond) {
		t.Fatalf("clock = %v, want exactly 7ms", c.Now())
	}
}

func TestExecutedCounter(t *testing.T) {
	c := NewClock()
	for i := 0; i < 10; i++ {
		c.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	stopped := NewTimer(c, func() {})
	stopped.Reset(time.Millisecond)
	stopped.Stop()
	if c.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10 (stopped timers don't count)", c.Pending())
	}
	c.Run()
	if c.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", c.Pending())
	}
	if c.Executed() != 10 {
		t.Fatalf("Executed = %d, want 10 (stopped timers don't count)", c.Executed())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := NewClock()
		for j := 0; j < 100; j++ {
			c.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		c.Run()
	}
}
