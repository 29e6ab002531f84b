package simtime

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// Events due at the same instant fire in the order they were
// scheduled, whatever scheduled them: driver code outside any event, or
// callbacks standing for different hosts' components, which all
// schedule on the one clock. A schedule made from inside an event takes
// the next key then, so it fires after every same-instant event already
// queued.
func TestSameInstantFiresInSchedulingOrder(t *testing.T) {
	c := NewClock()
	at := Time(5 * Millisecond)
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	c.ScheduleAt(at, log("b0"))
	c.ScheduleAt(at, log("a0"))
	c.ScheduleAt(at, func() {
		order = append(order, "r0")
		c.ScheduleAt(at, log("b-from-r0"))
	})
	c.ScheduleAt(at, log("b1"))
	c.ScheduleAt(at, log("a1"))
	c.ScheduleAt(at-Time(Millisecond), func() {
		// Keyed before r0 runs, so both fire ahead of b-from-r0.
		c.ScheduleAt(at, log("a-from-b"))
		c.ScheduleAt(at, log("r-from-b"))
	})
	c.Run()
	want := "[b0 a0 r0 b1 a1 a-from-b r-from-b b-from-r0]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("same-instant order = %v, want %v", got, want)
	}
}

// The engine must agree with the reference heap on ordering semantics
// (time order, insertion-order ties, clamping).
func TestShardedMatchesSerialSemantics(t *testing.T) {
	ref := &refClock{}
	c := NewClock()
	var a, b []int
	for i := 0; i < 20; i++ {
		i := i
		d := Duration((i*37)%11) * Millisecond
		ref.Schedule(d, func() { a = append(a, i) })
		c.Schedule(d, func() { b = append(b, i) })
	}
	ref.Run()
	c.Run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("reference order %v != engine order %v", a, b)
	}
	if ref.now != c.Now() {
		t.Fatalf("reference now %v != engine now %v", ref.now, c.Now())
	}
}

// Regression: a delay just under one level-l revolution, scheduled from
// the last tick of a level-l slot, must fire on time. Filed by tick
// delta it landed one revolution ahead in the slot being scanned, the
// cascade re-filed it in the same place, and RunFor never returned.
// The top level's revolution (2^66 ns) lies past every Time, so the
// check stops at the last level whose revolution fits.
func TestWheelRevolutionFromSlotEnd(t *testing.T) {
	const tick = Time(1) << tickShift
	for l := 1; (l+1)*wheelBits+tickShift < 63; l++ {
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

// The wheel must honor arbitrary far-future schedules in exact
// (when, seq) order, from the low levels up to the top level and the
// largest Time: the same order as the reference heap, same-instant
// ties included.
func TestShardedFarFutureOrdering(t *testing.T) {
	ref := &refClock{}
	c := NewClock()
	delays := []Duration{
		500 * Nanosecond,  // level 0
		3 * Millisecond,   // level 1
		900 * Millisecond, // level 2
		40 * time.Second,  // level 3
		1 << 42,           // level 4: past the old four-level span
		math.MaxInt64,     // the last Time
		1<<58 + 3,         // level 6
		17 * time.Second,  // level 3
		1<<62 - 1,         // level 6
		100 * Microsecond, // level 0
		1<<50 - 1,         // level 4, one tick under the level-5 slot
		math.MaxInt64 - 1, // level 6, the last slot
		65 * Millisecond,  // level 2 boundary-ish
		math.MaxInt64,     // tie with the other MaxInt64
		1 << 42,           // tie with the other 2^42
		260 * Microsecond, // level 0/1 boundary
	}
	var a, b []int
	for i, d := range delays {
		ref.Schedule(d, func() { a = append(a, i) })
		c.Schedule(d, func() { b = append(b, i) })
	}
	ref.Run()
	withWatchdog(t, c.Run)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("engine order %v, reference order %v", b, a)
	}
	if c.Now() != Time(math.MaxInt64) || c.Executed() != uint64(len(delays)) {
		t.Fatalf("Now %v Executed %d, want MaxInt64 and %d", c.Now(), c.Executed(), len(delays))
	}
}

// wheelDelay maps a random word onto a delay within one of the wheel's
// level spans, so every level is drawn about equally often. Half the
// draws sit within two slots below the span's end: a delay just under
// one revolution is where filing by tick delta went wrong. The top
// level's revolution lies past every Time, so its span is capped where
// a delay from a uint32 start still fits in a Time.
func wheelDelay(r uint64) Duration {
	level := r % wheelLevels
	r /= wheelLevels
	span := uint64(math.MaxInt64 - math.MaxUint32)
	if bits := (level+1)*wheelBits + tickShift; bits < 63 {
		span = uint64(1) << bits
	}
	if r&1 == 0 {
		return Duration((r >> 1) % span)
	}
	slot := span >> wheelBits
	return Duration(span - 1 - (r>>1)%(2*slot))
}

// Property: arbitrary delays and cancels behave identically on the
// reference heap and the engine (timers armed once and maybe stopped).
// The delays reach every wheel level, up to near the largest Time, and
// are scheduled from a cursor at an arbitrary offset inside its slot.
func TestPropertyShardedEquivalence(t *testing.T) {
	f := func(start uint32, raw []uint64, cancelMask []bool) bool {
		ref := &refClock{}
		sc := NewClock()
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
		sc.ScheduleAt(Time(start), func() {
			for i, r := range raw {
				i := i
				he[i] = NewTimer(sc, func() { b = append(b, i) })
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

// BenchmarkWheelChurn drives one long-lived engine through bursts that
// grow slot slices well past their initial capacity, then through
// sparse schedules that refill them from the freelist: the steady state
// that wheel.recycle's prefix clear serves.
func BenchmarkWheelChurn(b *testing.B) {
	b.ReportAllocs()
	c := NewClock()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			c.Schedule(Millisecond, fn)
		}
		for j := 0; j < 32; j++ {
			c.Schedule(Duration(j)*100*Microsecond, fn)
		}
		c.Run()
	}
}

// BenchmarkInterleavedChains runs eight self-rescheduling event chains
// on one engine, 500 events each, 10-59 µs apart: the interleaving of
// several hosts' activity on the one clock.
func BenchmarkInterleavedChains(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewClock()
		for j := 0; j < 8; j++ {
			n := 0
			var step func()
			step = func() {
				n++
				if n < 500 {
					c.Schedule(Duration(10+(n+j)%50)*Microsecond, step)
				}
			}
			c.Schedule(Microsecond, step)
		}
		c.Run()
	}
}

// wheel.recycle clears only a slot slice's used prefix. That is sound
// only if every freelist slice is all-nil beyond its length, so a slot
// grown far past its initial capacity of 8 — and any slot later refilled
// from the freelist with fewer events — must come back with no event
// pointer left anywhere in its backing array.
func TestWheelRecycledSlotsAreNilToCap(t *testing.T) {
	sc := NewClock()
	root := sc
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
	if sc := NewShardedClock(1); sc.Now() != 0 || sc.Pending() != 0 || sc.Root() != sc {
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
	c := NewClock()
	rto := NewTimer(c, func() {})
	n := 0
	var seg func()
	seg = func() {
		rto.Stop()
		rto.Reset(200 * Millisecond)
		if n++; n < b.N {
			c.Schedule(Duration(5+n%20)*Microsecond, seg)
		}
	}
	c.Schedule(Microsecond, seg)
	b.ResetTimer()
	c.Run()
}
