package simtime

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// buildShardTopology schedules an identical deterministic workload onto
// an engine with the given lane count: nShards host shards, each running
// a self-rescheduling task, plus cross-shard sends and a root driver.
// It returns the recorded execution log.
func runShardWorkload(t *testing.T, lanes, nShards int, seed int64) []string {
	t.Helper()
	sc := NewShardedClock(lanes)
	views := make([]*Clock, nShards)
	for i := range views {
		views[i] = sc.NewShard()
	}
	var log []string
	rng := NewRand(seed)
	for i, v := range views {
		i, v := i, v
		var step func()
		n := 0
		step = func() {
			n++
			log = append(log, fmt.Sprintf("s%d n%d t%d", i, n, v.Now()))
			if n < 50 {
				v.Schedule(Duration(50+rng.Intn(200))*Microsecond, step)
			}
			// Cross-shard ping to the next shard (legal in ladder mode).
			peer := views[(i+1)%len(views)]
			peer.Schedule(300*Microsecond, func() {
				log = append(log, fmt.Sprintf("ping s%d->s%d t%d", i, (i+1)%len(views), peer.Now()))
			})
		}
		v.Schedule(Duration(i+1)*Microsecond, step)
	}
	done := false
	sc.Root().Schedule(40*Millisecond, func() { done = true })
	sc.Root().RunUntil(Time(60 * Millisecond))
	if !done {
		t.Fatal("root driver event did not fire")
	}
	return log
}

// The core tentpole guarantee: the same topology and seed produce an
// identical execution order no matter how many physical lanes back it.
func TestShardedLaneCountInvariance(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		ref := runShardWorkload(t, 1, 5, seed)
		if len(ref) == 0 {
			t.Fatal("empty reference log")
		}
		for _, lanes := range []int{2, 3, 4, 8} {
			got := runShardWorkload(t, lanes, 5, seed)
			if len(got) != len(ref) {
				t.Fatalf("lanes=%d seed=%d: %d events, want %d", lanes, seed, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("lanes=%d seed=%d: event %d = %q, want %q", lanes, seed, i, got[i], ref[i])
				}
			}
		}
	}
}

// A sharded engine driven from one shard must agree with the serial
// reference heap on ordering semantics (time order, insertion-order ties
// within a shard, clamping).
func TestShardedMatchesSerialSemantics(t *testing.T) {
	ref := &refClock{}
	sc := NewShardedClock(4)
	view := sc.Root()
	var a, b []int
	for i := 0; i < 20; i++ {
		i := i
		d := Duration((i*37)%11) * Millisecond
		ref.Schedule(d, func() { a = append(a, i) })
		view.Schedule(d, func() { b = append(b, i) })
	}
	ref.Run()
	sc.Run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("serial order %v != sharded order %v", a, b)
	}
	if ref.now != sc.Now() {
		t.Fatalf("serial now %v != sharded now %v", ref.now, sc.Now())
	}
}

// Regression: a delay just under one level-l revolution, scheduled from
// the last tick of a level-l slot, must fire on time. Filed by tick
// delta it landed one revolution ahead in the slot being scanned, the
// cascade re-filed it in the same place, and RunFor never returned.
func TestWheelRevolutionFromSlotEnd(t *testing.T) {
	const tick = Time(1) << tickShift
	for l := 1; l < wheelLevels; l++ {
		slot := tick << (l * wheelBits) // level-l slot width
		c := NewClock()
		fired := Time(-1)
		c.ScheduleAt(slot-tick, func() {
			c.Schedule(Duration(slot*wheelSlots-tick), func() { fired = c.Now() })
		})
		want := slot - tick + slot*wheelSlots - tick
		withWatchdog(t, func() { c.RunUntil(want + Time(Second)) })
		if fired != want {
			t.Fatalf("level %d: event fired at %v, want %v", l, fired, want)
		}
	}
}

func TestShardedRunUntilBoundary(t *testing.T) {
	sc := NewShardedClock(2)
	v := sc.NewShard()
	var fired []Time
	v.Schedule(10*Millisecond, func() { fired = append(fired, v.Now()) })
	v.Schedule(20*Millisecond, func() { fired = append(fired, v.Now()) })
	v.Schedule(20*Millisecond+1, func() { fired = append(fired, v.Now()) })
	sc.RunUntil(Time(20 * Millisecond))
	if len(fired) != 2 {
		t.Fatalf("RunUntil(20ms) fired %d events, want 2 (event exactly at t must fire)", len(fired))
	}
	if sc.Now() != Time(20*Millisecond) {
		t.Fatalf("engine at %v, want exactly 20ms", sc.Now())
	}
	if v.Now() != Time(20*Millisecond) {
		t.Fatalf("view at %v, want exactly 20ms", v.Now())
	}
	sc.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining event did not fire: %d", len(fired))
	}
}

func TestShardedRunUntilIdleAdvances(t *testing.T) {
	sc := NewShardedClock(3)
	sc.RunUntil(Time(time.Second))
	if sc.Now() != Time(time.Second) {
		t.Fatalf("idle RunUntil left engine at %v, want 1s", sc.Now())
	}
}

func TestShardedCancel(t *testing.T) {
	sc := NewShardedClock(2)
	v := sc.NewShard()
	fired := false
	e := v.Schedule(Millisecond, func() { fired = true })
	if v.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", v.Pending())
	}
	e.Cancel()
	if v.Pending() != 0 {
		t.Fatalf("Pending after Cancel = %d, want 0 (canceled events must not be counted)", v.Pending())
	}
	sc.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestShardedPendingAndExecuted(t *testing.T) {
	sc := NewShardedClock(4)
	views := []*Clock{sc.NewShard(), sc.NewShard(), sc.NewShard()}
	for i, v := range views {
		v.Schedule(Duration(i+1)*Millisecond, func() {})
	}
	if sc.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", sc.Pending())
	}
	sc.Run()
	if sc.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", sc.Pending())
	}
	if sc.Executed() != 3 {
		t.Fatalf("Executed = %d, want 3", sc.Executed())
	}
}

// Barrier boundary: with lookahead L and the minimum next event at time
// m, events strictly below m+L execute in the window; an event exactly
// at the horizon m+L must wait for the next window. Observable through
// the mailbox: a cross-lane send issued in window 1 arriving exactly at
// the horizon is flushed at the barrier, so if the horizon event ran in
// window 1 it would fire before the mailbox event despite having the
// larger (when, shard, seq) key.
func TestShardedWindowHorizonBoundary(t *testing.T) {
	sc := NewShardedClock(2)
	a := sc.NewShard() // shard 1, lane 1
	b := sc.NewShard() // shard 2, lane 0 (with root)
	const la = 100 * Microsecond
	sc.SetLookahead(la)
	sc.SetWorkers(1) // windowed path, deterministic sequential drain

	var aLog, bLog []string
	// Window 1 starts at t=10µs (min event), horizon t=110µs.
	a.ScheduleAt(Time(10*Microsecond), func() {
		aLog = append(aLog, "a@10")
		// Arrives exactly at the horizon: legal, rides the mailbox.
		SendFrom(a, b, Time(110*Microsecond), func() { bLog = append(bLog, "mail@110") })
	})
	b.ScheduleAt(Time(109*Microsecond+999), func() { bLog = append(bLog, "b@109.999") })
	// Exactly at the horizon: must NOT run in window 1. Its key
	// (110µs, shard 2, ·) sorts after the mailbox event's key
	// (110µs, shard 1, ·), so in window 2 the mailbox event runs first.
	b.ScheduleAt(Time(110*Microsecond), func() { bLog = append(bLog, "b@110(horizon)") })
	sc.RunUntil(Time(1 * Millisecond))

	if fmt.Sprint(aLog) != "[a@10]" {
		t.Fatalf("aLog = %v, want [a@10]", aLog)
	}
	want := []string{"b@109.999", "mail@110", "b@110(horizon)"}
	if fmt.Sprint(bLog) != fmt.Sprint(want) {
		t.Fatalf("bLog = %v, want %v (horizon event must wait for the next window and sort after the mailbox event)", bLog, want)
	}
}

// SendFrom across lanes during a window must be deferred through the
// mailbox and arrive no earlier than the horizon.
func TestShardedSendFromMailbox(t *testing.T) {
	sc := NewShardedClock(2)
	a := sc.NewShard()
	b := sc.NewShard()
	const la = 50 * Microsecond
	sc.SetLookahead(la)
	sc.SetWorkers(1)

	got := Time(-1)
	a.ScheduleAt(Time(10*Microsecond), func() {
		// Cross-lane: must ride the mailbox, arriving >= the horizon.
		SendFrom(a, b, a.Now().Add(la), func() { got = b.Now() })
	})
	sc.RunUntil(Time(1 * Millisecond))
	if got != Time(60*Microsecond) {
		t.Fatalf("cross-lane send fired at %v, want 60µs", got)
	}
}

func TestShardedSendFromBelowHorizonPanics(t *testing.T) {
	sc := NewShardedClock(2)
	a := sc.NewShard()
	b := sc.NewShard()
	sc.SetLookahead(100 * Microsecond)
	sc.SetWorkers(1)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-lane send below the lookahead horizon did not panic")
		}
	}()
	a.ScheduleAt(Time(10*Microsecond), func() {
		SendFrom(a, b, a.Now().Add(10*Microsecond), func() {}) // 20µs < horizon 110µs
	})
	sc.RunUntil(Time(1 * Millisecond))
}

// Windowed mode with parallel workers must produce the same result as
// ladder mode when lanes are isolated (each lane only touches its own
// state and uses SendFrom across lanes). This is the -race soak target.
func TestShardedWindowedParallelMatchesLadder(t *testing.T) {
	run := func(workers int) []string {
		sc := NewShardedClock(4)
		const nShards = 8
		views := make([]*Clock, nShards)
		logs := make([][]string, nShards) // per-lane logs: no shared state
		for i := range views {
			views[i] = sc.NewShard()
		}
		const la = 100 * Microsecond
		sc.SetLookahead(la)
		sc.SetWorkers(workers)
		for i := range views {
			i, v := i, views[i]
			n := 0
			var step func()
			step = func() {
				n++
				logs[i] = append(logs[i], fmt.Sprintf("s%d n%d t%d", i, n, v.Now()))
				if n < 200 {
					v.Schedule(Duration(20+(n*i)%60)*Microsecond, step)
				}
				if n%10 == 0 {
					peer := views[(i+3)%nShards]
					SendFrom(v, peer, v.Now().Add(la+Duration(n)*Microsecond), func() {
						pi := (i + 3) % nShards
						logs[pi] = append(logs[pi], fmt.Sprintf("s%d got ping t%d", pi, peer.Now()))
					})
				}
			}
			v.Schedule(Duration(i+1)*Microsecond, step)
		}
		sc.RunUntil(Time(100 * Millisecond))
		var all []string
		for _, l := range logs {
			all = append(all, l...)
		}
		return all
	}
	ladder := run(0)
	seq := run(1)
	par := run(8)
	if fmt.Sprint(ladder) != fmt.Sprint(seq) {
		t.Fatal("sequential windowed run diverged from ladder run")
	}
	if fmt.Sprint(seq) != fmt.Sprint(par) {
		t.Fatal("parallel windowed run diverged from sequential windowed run")
	}
}

// The wheel must honor arbitrary far-future schedules (higher levels
// and overflow) in exact time order.
func TestShardedFarFutureOrdering(t *testing.T) {
	sc := NewShardedClock(2)
	v := sc.NewShard()
	delays := []Duration{
		500 * Nanosecond,  // level 0
		3 * Millisecond,   // level 1
		900 * Millisecond, // level 2
		40 * time.Second,  // level 3
		2 * time.Hour,     // overflow
		90 * time.Minute,  // overflow
		17 * time.Second,  // level 3
		100 * Microsecond, // level 0
		65 * Millisecond,  // level 2 boundary-ish
		260 * Microsecond, // level 0/1 boundary
	}
	var fired []Time
	for _, d := range delays {
		v.Schedule(d, func() { fired = append(fired, v.Now()) })
	}
	sc.Run()
	if len(fired) != len(delays) {
		t.Fatalf("fired %d, want %d", len(fired), len(delays))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
	if sc.Executed() != uint64(len(delays)) {
		t.Fatalf("Executed = %d, want %d", sc.Executed(), len(delays))
	}
}

// wheelDelay maps a random word onto a delay within one of the wheel's
// level spans or past the last (the overflow heap), so every level is
// drawn about equally often. Half the draws sit within two slots below
// the span's end: a delay just under one revolution is where filing by
// tick delta went wrong.
func wheelDelay(r uint64) Duration {
	level := r % (wheelLevels + 1)
	r /= wheelLevels + 1
	span := uint64(1) << ((level+1)*wheelBits + tickShift)
	if r&1 == 0 {
		return Duration((r >> 1) % span)
	}
	slot := span >> wheelBits
	return Duration(span - 1 - (r>>1)%(2*slot))
}

// Property: arbitrary delays and cancels behave identically on the
// serial reference heap and a multi-lane sharded engine driven from one
// shard. The delays reach every wheel level and the overflow heap, and
// are scheduled from a cursor at an arbitrary offset inside its slot.
func TestPropertyShardedEquivalence(t *testing.T) {
	f := func(start uint32, raw []uint64, cancelMask []bool) bool {
		ref := &refClock{}
		sc := NewShardedClock(3)
		view := sc.NewShard()
		var a, b []int
		re := make([]*refEvent, len(raw))
		he := make([]*Event, len(raw))
		ref.ScheduleAt(Time(start), func() {
			for i, r := range raw {
				i := i
				re[i] = ref.Schedule(wheelDelay(r), func() { a = append(a, i) })
			}
			for i := range re {
				if i < len(cancelMask) && cancelMask[i] {
					ref.Cancel(re[i])
				}
			}
		})
		view.ScheduleAt(Time(start), func() {
			for i, r := range raw {
				i := i
				he[i] = view.Schedule(wheelDelay(r), func() { b = append(b, i) })
			}
			for i := range he {
				if i < len(cancelMask) && cancelMask[i] {
					he[i].Cancel()
				}
			}
		})
		ref.Run()
		withWatchdog(t, sc.Run)
		if len(ref.pq) != 0 || sc.Pending() != 0 {
			return false
		}
		return fmt.Sprint(a) == fmt.Sprint(b) && ref.now == sc.Now()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestShardedTicker(t *testing.T) {
	sc := NewShardedClock(2)
	v := sc.NewShard()
	var ticks []Time
	tk := NewTicker(v, 30*Millisecond, func() { ticks = append(ticks, v.Now()) })
	sc.RunUntil(Time(100 * Millisecond))
	tk.Stop()
	sc.RunUntil(Time(500 * Millisecond))
	if len(ticks) != 3 {
		t.Fatalf("ticker fired %d times, want 3: %v", len(ticks), ticks)
	}
}

func TestShardedStop(t *testing.T) {
	sc := NewShardedClock(2)
	v := sc.NewShard()
	count := 0
	for i := 0; i < 10; i++ {
		v.Schedule(Duration(i+1)*Millisecond, func() {
			count++
			if count == 3 {
				v.Stop()
			}
		})
	}
	sc.Run()
	if count != 3 {
		t.Fatalf("Stop did not interrupt ladder run: %d events fired, want 3", count)
	}
}

func BenchmarkShardedEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := NewShardedClock(4)
		views := make([]*Clock, 8)
		for j := range views {
			views[j] = sc.NewShard()
		}
		for j := range views {
			j, v := j, views[j]
			n := 0
			var step func()
			step = func() {
				n++
				if n < 500 {
					v.Schedule(Duration(10+(n+j)%50)*Microsecond, step)
				}
			}
			v.Schedule(Microsecond, step)
		}
		sc.Run()
	}
}
