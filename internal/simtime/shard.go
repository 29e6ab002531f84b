// The simulation engine: one hierarchical timing wheel holding every
// shard's events under the (when, shard, seq) total order.
//
// # Shards
//
// A *logical shard* is a determinism domain: one per simulated host
// (plus shard 0, the root, for fabric-level drivers — switches,
// campaign oracles, fleet control loops). Shards are created with
// NewShard, in topology order, so shard IDs depend only on the
// topology.
//
// # Total order
//
// Every event is keyed (when, shard, seq) where shard is the shard
// *executing when the event was scheduled* (the scheduling context;
// the view's own shard when scheduled from driver code outside any
// event) and seq is that shard's private counter, fixed at schedule
// time. Events at the same instant therefore fire shard by shard, and
// within a shard in scheduling order. The per-shard counters are why
// Clock views exist: a view carries the shard a driver-level schedule
// is keyed by, and an event carries the shard its own schedules are
// keyed by.
package simtime

import (
	"fmt"
	"math/bits"
	"sort"
)

// Timing-wheel geometry. Level 0 slots are 1024ns (~1µs) wide; each
// higher level is 256× coarser, so four levels cover ~73 minutes of
// virtual time and anything beyond spills into a keyed overflow heap.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	tickShift   = 10
	bitmapWords = wheelSlots / 64
)

// slabChunk is the event allocation batch: fresh events are handed out
// of chunked arrays, so growing the queue amortizes one heap allocation
// across slabChunk events. Every fired or dropped event goes back on
// the engine's free list, and the steady state allocates nothing.
const slabChunk = 128

// event is one queued entry. A plain schedule carries its callback in
// fn; a timer's event carries the timer in tm instead. An event whose
// timer abandoned it has neither and is dropped where the engine next
// touches it. No handle on an event leaves the engine, so once it is
// fired or dropped it is recycled.
type event struct {
	when Time
	// seq is the scheduling shard's counter; (when, shard, seq) is the
	// engine's total order.
	seq   uint64
	shard int32 // scheduling shard
	// target is the shard of the view the event was scheduled on; the
	// event runs as that shard, so its own schedules are keyed by it.
	target int32
	fn     func()
	tm     *Timer
}

// keyLess is the engine's total order: (when, shard, seq).
func keyLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.shard != b.shard {
		return a.shard < b.shard
	}
	return a.seq < b.seq
}

// keyHeap is a heap over the full (when, shard, seq) key, used only for
// the far-future overflow of a wheel.
type keyHeap []*event

func (h *keyHeap) push(e *event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !keyLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *keyHeap) pop() *event {
	old := *h
	e := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	i, hp := 0, *h
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && keyLess(hp[l], hp[m]) {
			m = l
		}
		if r < n && keyLess(hp[r], hp[m]) {
			m = r
		}
		if m == i {
			break
		}
		hp[i], hp[m] = hp[m], hp[i]
		i = m
	}
	return e
}

type wheelLevel struct {
	slots  [wheelSlots][]*event
	bitmap [bitmapWords]uint64
	count  int // events stored at this level (skips empty-level scans)
}

// wheel is the engine's future-event store: hierarchical bitmap-indexed
// timing wheels with a keyed overflow heap past the outermost span.
// Invariant: every queued event has when >= cur.
type wheel struct {
	cur      Time
	levels   [wheelLevels]wheelLevel
	overflow keyHeap
	// free recycles drained slot slices so steady-state insert/drain
	// cycles allocate nothing (the freelist is bounded by the number of
	// slots ever nonempty at once).
	free [][]*event
}

// insert files e at the lowest level whose slot number is less than one
// revolution past the cursor's. Choosing by slot-number difference
// rather than tick delta matters: a delay just under one revolution from
// a cursor late in its slot has a small enough tick delta but lands one
// full revolution ahead, in the very slot being scanned.
func (w *wheel) insert(e *event) {
	tw := uint64(e.when) >> tickShift
	tc := uint64(w.cur) >> tickShift
	for l := uint(0); l < wheelLevels; l++ {
		if (tw>>(l*wheelBits))-(tc>>(l*wheelBits)) < wheelSlots {
			idx := int((tw >> (l * wheelBits)) & wheelMask)
			lv := &w.levels[l]
			if lv.slots[idx] == nil {
				lv.slots[idx] = w.getSlot()
			}
			lv.slots[idx] = append(lv.slots[idx], e)
			lv.bitmap[idx>>6] |= 1 << uint(idx&63)
			lv.count++
			return
		}
	}
	w.overflow.push(e)
}

func (w *wheel) getSlot() []*event {
	if n := len(w.free); n > 0 {
		s := w.free[n-1]
		w.free = w.free[:n-1]
		return s
	}
	return make([]*event, 0, 8)
}

// recycle returns a drained slot slice to the freelist, dropping its
// event pointers for the GC. Clearing the used prefix is enough: slot
// slices only ever grow by append, so every freelist slice is all-nil
// beyond its length, and so is everything append fills from it.
func (w *wheel) recycle(s []*event) {
	if cap(s) == 0 {
		return
	}
	clear(s)
	w.free = append(w.free, s[:0])
}

// findSlot returns the first nonempty slot at level l, scanning
// circularly from the slot containing cur. start is the slot's absolute
// start time. The scan tests at most five bitmap words: the cursor's
// word from the cursor's bit up, the other three words, then the
// cursor's word below its bit (the wrap).
func (w *wheel) findSlot(l uint) (idx int, start Time, found bool) {
	lv := &w.levels[l]
	curSlotNum := (uint64(w.cur) >> tickShift) >> (l * wheelBits)
	s := int(curSlotNum & wheelMask)
	wi, below := s>>6, uint64(1)<<uint(s&63)-1
	for k := 0; k <= bitmapWords; k++ {
		j := (wi + k) & (bitmapWords - 1)
		word := lv.bitmap[j]
		switch k {
		case 0:
			word &^= below
		case bitmapWords:
			word &= below
		}
		if word != 0 {
			idx = j<<6 | bits.TrailingZeros64(word)
			slotNum := curSlotNum + uint64((idx-s)&wheelMask)
			return idx, Time((slotNum << (l * wheelBits)) << tickShift), true
		}
	}
	return 0, 0, false
}

// nextSlot removes and returns the earliest nonempty level-0 slot's
// events plus the exclusive end time of that slot, cascading higher
// levels down as needed. ok is false when the wheel is empty. Events
// the engine settles away (see settle) are dropped here rather than
// cascaded, and a re-keyed timer is cascaded under its new key.
//
// A level-l slot start is a multiple of the slot width 256^l ticks, so
// two candidate slots at different levels either start at the same time
// (the coarser one may hide earlier events and must cascade first) or
// the later one starts at or beyond the earlier one's end (safe).
// Choosing the minimum-start candidate, preferring the higher level on
// ties, is therefore sufficient for exact ordering.
func (sc *ShardedClock) nextSlot() (batch []*event, end Time, ok bool) {
	w := &sc.wh
	for {
		bestL := -1
		var bestIdx int
		var bestStart Time
		for l := uint(0); l < wheelLevels; l++ {
			if w.levels[l].count == 0 {
				continue
			}
			idx, start, found := w.findSlot(l)
			if !found {
				continue
			}
			if bestL < 0 || start < bestStart || (start == bestStart && int(l) > bestL) {
				bestL, bestIdx, bestStart = int(l), idx, start
			}
		}
		if len(w.overflow) > 0 && (bestL < 0 || w.overflow[0].when <= bestStart) {
			// The overflow head is due before (or at) every wheel slot:
			// pull it back through the wheel so it merges in exact order
			// with any same-slot events. A dead head is dropped and
			// leaves the cursor where it was.
			e := w.overflow.pop()
			if live, _ := sc.settle(e); !live {
				continue
			}
			if e.when > w.cur {
				w.cur = e.when
			}
			w.insert(e)
			continue
		}
		if bestL < 0 {
			return nil, 0, false
		}
		if start := bestStart; bestL == 0 {
			lv := &w.levels[0]
			batch = lv.slots[bestIdx]
			lv.slots[bestIdx] = nil
			lv.bitmap[bestIdx>>6] &^= 1 << uint(bestIdx&63)
			lv.count -= len(batch)
			if start > w.cur {
				w.cur = start
			}
			return batch, start + (1 << tickShift), true
		}
		// Cascade: push the slot's live events one level down and drop
		// its dead ones, which nothing will ever fire. The cursor
		// advances to the slot only when a live event is filed again:
		// deltas from the advanced cur are then strictly below the slot
		// width, so every event lands at level <= bestL-1 (progress),
		// and a timer re-keyed past the slot keeps the wheel nonempty.
		// An all-dead slot leaves cur where it was, because nothing
		// then pulls the engine's run window up to the slot, and an
		// insert below an advanced cur would wrap a revolution ahead.
		lv := &w.levels[bestL]
		evs := lv.slots[bestIdx]
		lv.slots[bestIdx] = nil
		lv.bitmap[bestIdx>>6] &^= 1 << uint(bestIdx&63)
		lv.count -= len(evs)
		for _, e := range evs {
			if live, _ := sc.settle(e); !live {
				continue
			}
			if bestStart > w.cur {
				w.cur = bestStart
			}
			w.insert(e)
		}
		w.recycle(evs)
	}
}

// ShardedClock is the simulation engine: one timing wheel plus the
// key-sorted run of the level-0 slot being consumed. Create it with
// NewEngine, obtain *Clock views with Root and NewShard, and drive it
// through any view's Run/RunUntil/RunFor (or its own).
//
// Invariant: wheel events have when >= runEnd; inserts below runEnd
// splice into the run's unconsumed tail.
type ShardedClock struct {
	root     *Clock
	ctrs     []uint64 // per-shard key counters, indexed by shard ID
	now      Time
	curShard int32 // shard of the executing event; -1 outside events
	stopped  bool
	running  bool
	executed uint64
	// live counts plain schedules that have not fired plus armed
	// timers (Pending).
	live int64

	wh     wheel
	run    []*event
	runPos int
	runEnd Time
	// free holds fired and dropped events for reuse; slab is the chunk
	// fresh events come from when free is empty (see slabChunk).
	free    []*event
	slab    []event
	slabPos int
	// freshRefile is a deliberate defect for the engine's differential
	// test: a re-keyed timer takes a fresh sequence number instead of
	// the one Reset reserved. Never set outside that test.
	freshRefile bool
}

// NewEngine creates an engine at virtual time zero with only the root
// shard.
func NewEngine() *ShardedClock {
	sc := &ShardedClock{curShard: -1, ctrs: []uint64{0}, free: make([]*event, 0, slabChunk)}
	sc.root = &Clock{eng: sc, shard: 0}
	return sc
}

// NewShardedClock is NewEngine under its old name, whose argument
// counted event wheels. The benchmark module (bench/) is its last
// caller. The engine has exactly one wheel, so any n other than 1
// panics.
func NewShardedClock(n int) *ShardedClock {
	if n != 1 {
		panic(fmt.Sprintf("simtime: NewShardedClock(%d): the engine has exactly one wheel", n))
	}
	return NewEngine()
}

// Root returns the fabric view: shard 0, for switches, campaign drivers
// and anything else that is not pinned to one simulated host.
func (sc *ShardedClock) Root() *Clock { return sc.root }

// NewShard creates the next logical shard and returns its Clock view.
// Call once per simulated host, in topology order, so shard IDs — and
// with them the (when, shard, seq) total order — depend only on the
// topology.
func (sc *ShardedClock) NewShard() *Clock {
	v := &Clock{eng: sc, shard: int32(len(sc.ctrs))}
	sc.ctrs = append(sc.ctrs, 0)
	return v
}

// Now returns the engine's virtual time.
func (sc *ShardedClock) Now() Time { return sc.now }

// Pending returns the number of plain schedules that have not fired
// plus the number of armed timers.
func (sc *ShardedClock) Pending() int { return int(sc.live) }

// Executed returns the total number of events fired.
func (sc *ShardedClock) Executed() uint64 { return sc.executed }

// alloc hands out an event: a recycled one, or the next from the slab
// chunk.
func (sc *ShardedClock) alloc() *event {
	if n := len(sc.free); n > 0 {
		e := sc.free[n-1]
		sc.free = sc.free[:n-1]
		return e
	}
	if sc.slabPos == len(sc.slab) {
		sc.slab = make([]event, slabChunk)
		sc.slabPos = 0
	}
	e := &sc.slab[sc.slabPos]
	sc.slabPos++
	return e
}

// release returns a fired or dropped event to the free list. Nothing
// outside the engine holds an event, and the engine holds none it has
// released, so reuse is safe.
func (sc *ShardedClock) release(e *event) {
	*e = event{}
	sc.free = append(sc.free, e)
}

// schedShard is the shard a schedule made through view is keyed by:
// the executing event's shard, or view's own outside events.
func (sc *ShardedClock) schedShard(view *Clock) int32 {
	if sc.curShard >= 0 {
		return sc.curShard
	}
	return view.shard
}

func (sc *ShardedClock) scheduleAt(view *Clock, t Time, fn func()) {
	shard := sc.schedShard(view)
	if t < sc.now {
		t = sc.now
	}
	e := sc.alloc()
	*e = event{when: t, seq: sc.ctrs[shard], shard: shard, target: view.shard, fn: fn}
	sc.ctrs[shard]++
	sc.live++
	sc.file(e)
}

// file queues e under its key: spliced into the run's unconsumed tail
// when it is due before the run ends, into the wheel otherwise.
func (sc *ShardedClock) file(e *event) {
	if e.when < sc.runEnd {
		i := sc.runPos
		for i < len(sc.run) && keyLess(sc.run[i], e) {
			i++
		}
		sc.run = append(sc.run, nil)
		copy(sc.run[i+1:], sc.run[i:])
		sc.run[i] = e
		return
	}
	sc.wh.insert(e)
}

// resetTimer arms t for at. It reserves the key a fresh schedule would
// get, consuming the scheduling shard's counter exactly as ScheduleAt
// does. A queued event keyed at or before the reserved key stays where
// it is: the engine reaches it first and re-files it then (settle). An
// event keyed after it would fire late, so it is abandoned and a new
// one filed under the reserved key.
func (sc *ShardedClock) resetTimer(t *Timer, at Time) {
	shard := sc.schedShard(t.view)
	if at < sc.now {
		at = sc.now
	}
	t.when, t.shard, t.seq = at, shard, sc.ctrs[shard]
	sc.ctrs[shard]++
	if !t.armed {
		t.armed = true
		sc.live++
	}
	key := event{when: at, seq: t.seq, shard: shard, target: t.view.shard, tm: t}
	if e := t.ev; e != nil {
		if keyLess(e, &key) {
			return
		}
		e.tm = nil
	}
	e := sc.alloc()
	*e = key
	t.ev = e
	sc.file(e)
}

// settle decides what becomes of e where the engine touches it
// (cascade, overflow pull, run). A plain event is live. An abandoned
// event, or the event of a stopped timer, is dead: it is detached and
// recycled. A timer event behind its timer's reserved key is re-keyed
// to it (moved), and the caller files it again. Drops and re-keys fire
// nothing and leave the clock alone.
func (sc *ShardedClock) settle(e *event) (live, moved bool) {
	if e.fn != nil {
		return true, false
	}
	t := e.tm
	if t == nil || !t.armed {
		if t != nil {
			t.ev = nil
		}
		sc.release(e)
		return false, false
	}
	if e.seq == t.seq && e.when == t.when && e.shard == t.shard {
		return true, false
	}
	e.when, e.shard, e.seq = t.when, t.shard, t.seq
	if sc.freshRefile {
		e.seq = sc.ctrs[e.shard]
		t.seq = e.seq
		sc.ctrs[e.shard]++
	}
	return true, true
}

// head returns the next live event without consuming it, pulling and
// key-sorting the next wheel slot when the run is exhausted.
func (sc *ShardedClock) head() *event {
	for {
		for sc.runPos < len(sc.run) {
			e := sc.run[sc.runPos]
			live, moved := sc.settle(e)
			if live && !moved {
				return e
			}
			sc.run[sc.runPos] = nil
			sc.runPos++
			if live {
				sc.file(e)
			}
		}
		batch, end, ok := sc.nextSlot()
		if !ok {
			sc.run = sc.run[:0]
			sc.runPos = 0
			return nil
		}
		// Copy live events into the reusable run buffer and hand the
		// slot slice back to the wheel: the steady-state refill path
		// allocates nothing. A timer re-keyed past the slot goes back
		// into the wheel.
		sc.run = sc.run[:0]
		for _, e := range batch {
			if live, _ := sc.settle(e); !live {
				continue
			}
			if e.when < end {
				sc.run = append(sc.run, e)
			} else {
				sc.wh.insert(e)
			}
		}
		sc.wh.recycle(batch)
		sortByKey(sc.run)
		sc.runPos = 0
		sc.runEnd = end
	}
}

// sortByKey orders a slot batch by (when, shard, seq). Batches are
// typically small (one level-0 slot), so insertion sort wins and
// allocates nothing; large batches fall back to the library sort.
func sortByKey(evs []*event) {
	if len(evs) <= 48 {
		for i := 1; i < len(evs); i++ {
			e := evs[i]
			j := i - 1
			for j >= 0 && keyLess(e, evs[j]) {
				evs[j+1] = evs[j]
				j--
			}
			evs[j+1] = e
		}
		return
	}
	sort.Slice(evs, func(i, j int) bool { return keyLess(evs[i], evs[j]) })
}

// fire consumes e, the event head() just returned, and runs it as its
// target shard. The event is recycled before its callback runs, so a
// timer re-armed from its own callback reuses it.
func (sc *ShardedClock) fire(e *event) {
	sc.run[sc.runPos] = nil
	sc.runPos++
	sc.now = e.when
	sc.curShard = e.target
	sc.live--
	fn := e.fn
	if t := e.tm; t != nil {
		t.ev = nil
		t.armed = false
		fn = t.fn
	}
	sc.release(e)
	fn()
	sc.executed++
	sc.curShard = -1
}

// step fires the next event; false when none is left.
func (sc *ShardedClock) step() bool {
	e := sc.head()
	if e == nil {
		return false
	}
	sc.fire(e)
	return true
}

func (sc *ShardedClock) drive(until Time, bounded bool) {
	if sc.running {
		panic("simtime: reentrant Run on ShardedClock")
	}
	sc.running = true
	defer func() { sc.running = false }()
	sc.stopped = false
	for !sc.stopped {
		e := sc.head()
		if e == nil || (bounded && e.when > until) {
			break
		}
		sc.fire(e)
	}
	if bounded && sc.now < until {
		sc.now = until
	}
}

// Run fires events until none is left or Stop is called.
func (sc *ShardedClock) Run() { sc.drive(0, false) }

// RunUntil fires events with time <= t, then sets the engine to t.
func (sc *ShardedClock) RunUntil(t Time) { sc.drive(t, true) }

// RunFor is shorthand for RunUntil(Now().Add(d)).
func (sc *ShardedClock) RunFor(d Duration) { sc.RunUntil(sc.now.Add(d)) }

// Stop makes a Run/RunUntil in progress return after the current event.
func (sc *ShardedClock) Stop() { sc.stopped = true }
