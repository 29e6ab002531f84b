package simtime

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// Events due at the same instant fire shard by shard, and within a
// shard in scheduling order, whatever order they were scheduled in. An
// event scheduled from inside another is keyed by the executing shard,
// not by the view it is scheduled on.
func TestShardedSameInstantTieOrder(t *testing.T) {
	sc := NewEngine()
	root := sc.Root()
	a, b := sc.NewShard(), sc.NewShard() // shards 1 and 2
	at := Time(5 * Millisecond)
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	b.ScheduleAt(at, log("b0"))
	a.ScheduleAt(at, log("a0"))
	root.ScheduleAt(at, func() {
		order = append(order, "r0")
		// Keyed (at, 0, ·): sorts ahead of every shard-1 and shard-2
		// event still due at this instant.
		b.ScheduleAt(at, log("b-from-r0"))
	})
	b.ScheduleAt(at, log("b1"))
	a.ScheduleAt(at, log("a1"))
	b.ScheduleAt(at-Time(Millisecond), func() {
		// Keyed (at, 2, ·): after b0 and b1, ahead of nothing else.
		a.ScheduleAt(at, log("a-from-b"))
		root.ScheduleAt(at, log("r-from-b"))
	})
	sc.Run()
	want := "[r0 b-from-r0 a0 a1 b0 b1 a-from-b r-from-b]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("same-instant order = %v, want %v", got, want)
	}
}

// A sharded engine driven from one shard must agree with the serial
// reference heap on ordering semantics (time order, insertion-order ties
// within a shard, clamping).
func TestShardedMatchesSerialSemantics(t *testing.T) {
	ref := &refClock{}
	sc := NewEngine()
	sc.NewShard()
	sc.NewShard()
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
	sc := NewEngine()
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
	sc := NewEngine()
	sc.RunUntil(Time(time.Second))
	if sc.Now() != Time(time.Second) {
		t.Fatalf("idle RunUntil left engine at %v, want 1s", sc.Now())
	}
}

func TestShardedCancel(t *testing.T) {
	sc := NewEngine()
	v := sc.NewShard()
	fired := false
	tm := NewTimer(v, func() { fired = true })
	tm.Reset(Millisecond)
	if v.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", v.Pending())
	}
	tm.Stop()
	if v.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d, want 0 (stopped timers must not be counted)", v.Pending())
	}
	sc.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestShardedPendingAndExecuted(t *testing.T) {
	sc := NewEngine()
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

// The wheel must honor arbitrary far-future schedules (higher levels
// and overflow) in exact time order.
func TestShardedFarFutureOrdering(t *testing.T) {
	sc := NewEngine()
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
// serial reference heap and the engine (timers armed once and maybe
// stopped), with timers spread over three shard views but all armed
// from one event (so keyed by one shard).
// The delays reach every wheel level and the overflow heap, and are
// scheduled from a cursor at an arbitrary offset inside its slot.
func TestPropertyShardedEquivalence(t *testing.T) {
	f := func(start uint32, raw []uint64, cancelMask []bool) bool {
		ref := &refClock{}
		sc := NewEngine()
		views := []*Clock{sc.NewShard(), sc.NewShard(), sc.NewShard()}
		view := views[0]
		var a, b []int
		re := make([]*refEvent, len(raw))
		he := make([]*Timer, len(raw))
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
				he[i] = NewTimer(views[i%len(views)], func() { b = append(b, i) })
				he[i].Reset(wheelDelay(r))
			}
			for i := range he {
				if i < len(cancelMask) && cancelMask[i] {
					he[i].Stop()
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
	sc := NewEngine()
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
	sc := NewEngine()
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
		t.Fatalf("Stop did not interrupt the run: %d events fired, want 3", count)
	}
}

// BenchmarkWheelChurn drives one long-lived engine through bursts that
// grow slot slices well past their initial capacity, then through
// sparse schedules that refill them from the freelist: the steady state
// that wheel.recycle's prefix clear serves.
func BenchmarkWheelChurn(b *testing.B) {
	b.ReportAllocs()
	sc := NewEngine()
	root := sc.Root()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			root.Schedule(Millisecond, fn)
		}
		for j := 0; j < 32; j++ {
			root.Schedule(Duration(j)*100*Microsecond, fn)
		}
		sc.Run()
	}
}

func BenchmarkShardedEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := NewEngine()
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

// wheel.recycle clears only a slot slice's used prefix. That is sound
// only if every freelist slice is all-nil beyond its length, so a slot
// grown far past its initial capacity of 8 — and any slot later refilled
// from the freelist with fewer events — must come back with no event
// pointer left anywhere in its backing array.
func TestWheelRecycledSlotsAreNilToCap(t *testing.T) {
	sc := NewEngine()
	root := sc.Root()
	checkFree := func(round string, wantCap int) {
		t.Helper()
		maxCap := 0
		for _, s := range sc.wh.free {
			if len(s) != 0 {
				t.Fatalf("%s: freelist slice has length %d, want 0", round, len(s))
			}
			for i, e := range s[:cap(s)] {
				if e != nil {
					t.Fatalf("%s: freelist slice (cap %d) still holds an event at %d", round, cap(s), i)
				}
			}
			maxCap = max(maxCap, cap(s))
		}
		if maxCap < wantCap {
			t.Fatalf("%s: largest recycled slot has cap %d, want >= %d", round, maxCap, wantCap)
		}
	}
	// A burst far larger than one slot's initial capacity, far enough
	// ahead to land above level 0 and cascade down, plus stragglers.
	for i := 0; i < 200; i++ {
		root.ScheduleAt(Time(5*Millisecond), func() {})
	}
	for i := 0; i < 3; i++ {
		root.ScheduleAt(Time(7*Millisecond), func() {})
	}
	sc.Run()
	checkFree("burst", 200)
	// Refill the recycled slices with fewer events than they once held.
	for i := 0; i < 5; i++ {
		root.Schedule(Duration(i)*Millisecond, func() {})
	}
	sc.Run()
	checkFree("refill", 200)
}

func TestNewShardedClockOneLaneOnly(t *testing.T) {
	if sc := NewShardedClock(1); sc.Now() != 0 || sc.Pending() != 0 || sc.NewShard().shard != 1 {
		t.Fatal("NewShardedClock(1) did not return a fresh engine")
	}
	for _, n := range []int{0, 2, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewShardedClock(%d) did not panic", n)
				}
			}()
			NewShardedClock(n)
		}()
	}
}

// findSlot's bit scan must agree with the plain circular scan it
// replaces: every level, every cursor slot (with revolutions above it),
// and bitmaps that are empty, full, single bits at word edges, and
// random at several densities.
func TestFindSlotMatchesCircularScan(t *testing.T) {
	naive := func(w *wheel, l uint) (int, Time, bool) {
		lv := &w.levels[l]
		curSlotNum := (uint64(w.cur) >> tickShift) >> (l * wheelBits)
		s := int(curSlotNum & wheelMask)
		for off := 0; off < wheelSlots; off++ {
			i := (s + off) & wheelMask
			if lv.bitmap[i>>6]&(1<<uint(i&63)) != 0 {
				return i, Time(((curSlotNum + uint64(off)) << (l * wheelBits)) << tickShift), true
			}
		}
		return 0, 0, false
	}
	var maps [][bitmapWords]uint64
	maps = append(maps, [bitmapWords]uint64{}, [bitmapWords]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)})
	for _, b := range []int{0, 1, 62, 63, 64, 65, 127, 128, 191, 192, 254, 255} {
		var m [bitmapWords]uint64
		m[b>>6] = 1 << uint(b&63)
		maps = append(maps, m)
	}
	rng := NewRand(7)
	for i := 0; i < 24; i++ {
		var m [bitmapWords]uint64
		for j := range m {
			switch i % 3 {
			case 0:
				m[j] = rng.Uint64()
			case 1:
				m[j] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			default:
				if rng.Intn(2) == 0 {
					m[j] = 1 << uint(rng.Intn(64))
				}
			}
		}
		maps = append(maps, m)
	}
	for l := uint(0); l < wheelLevels; l++ {
		for s := 0; s < wheelSlots; s++ {
			revs := uint64(rng.Intn(1 << 10))
			for _, m := range maps {
				var w wheel
				w.levels[l].bitmap = m
				w.cur = Time(((revs<<wheelBits | uint64(s)) << (l * wheelBits)) << tickShift)
				w.cur += Time(rng.Int63n(int64(1) << (l*wheelBits + tickShift))) // anywhere in the slot
				gi, gs, gf := w.findSlot(l)
				wi, ws, wf := naive(&w, l)
				if gi != wi || gs != ws || gf != wf {
					t.Fatalf("level %d cursor slot %d bitmap %x: findSlot = (%d, %v, %v), scan = (%d, %v, %v)",
						l, s, m, gi, gs, gf, wi, ws, wf)
				}
			}
		}
	}
}

// A cascade that finds only a stopped timer's event drops it without
// advancing the cursor. Were the cursor moved to the emptied slot, the
// engine's time would stay behind it (nothing fires there), and an
// event scheduled between the two would wrap a revolution ahead of the
// cursor and cascade into itself forever.
func TestCascadeOfCanceledSlotKeepsCursor(t *testing.T) {
	c := NewClock()
	far := NewTimer(c, func() { t.Error("stopped timer fired") })
	far.Reset(200 * Millisecond)
	far.Stop()
	c.RunUntil(Time(100 * Millisecond)) // cascades the 200 ms slot, finds nothing live
	fired := Time(-1)
	c.ScheduleAt(Time(110*Millisecond), func() { fired = c.Now() })
	withWatchdog(t, func() {
		for i := 0; i < 4 && fired < 0; i++ {
			c.Step()
		}
	})
	if fired != Time(110*Millisecond) {
		t.Fatalf("event fired at %v, want 110ms", fired)
	}
}

// BenchmarkTimerRestart is a TCP sender's timer pattern: every
// segment, microseconds apart, restarts the pending 200 ms
// retransmission timer, so the timer's deadline moves on long before
// its queued event is reached. The event is re-keyed where the engine
// first reaches it instead of being re-made per segment.
func BenchmarkTimerRestart(b *testing.B) {
	b.ReportAllocs()
	sc := NewEngine()
	root := sc.Root()
	rto := NewTimer(root, func() {})
	n := 0
	var seg func()
	seg = func() {
		rto.Stop()
		rto.Reset(200 * Millisecond)
		if n++; n < b.N {
			root.Schedule(Duration(5+n%20)*Microsecond, seg)
		}
	}
	root.Schedule(Microsecond, seg)
	b.ResetTimer()
	sc.Run()
}
