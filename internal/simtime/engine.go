// The simulation engine: one hierarchical timing wheel holding every
// event under the (when, seq) total order. seq is one engine-wide
// counter, fixed when the event is scheduled, so events due at the same
// instant fire in the order they were scheduled, whoever scheduled them.
package simtime

import (
	"math/bits"
	"sort"
)

// Timing-wheel geometry. Level 0 slots are 1024ns (~1µs) wide; each
// higher level is 256× coarser, so seven levels span every Time: the
// top level's slots are 2^58 ns wide, and a Time's slot number there
// (when >> 58) is below 32, less than one revolution past any cursor.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 7
	tickShift   = 10
	bitmapWords = wheelSlots / 64
)

// slabChunk is the event allocation batch: fresh events are handed out
// of chunked arrays, so growing the queue amortizes one heap allocation
// across slabChunk events. Every fired or dropped event goes back on
// the engine's pool, and the steady state allocates nothing.
const slabChunk = 128

// event is one queued entry. A plain schedule carries its callback in
// fn; a timer's event carries the timer in tm instead. An event whose
// timer abandoned it has neither and is dropped where the engine next
// touches it. No handle on an event leaves the engine, so once it is
// fired or dropped it is recycled.
type event struct {
	when Time
	seq  uint64
	fn   func()
	tm   *Timer
}

// keyLess is the engine's total order: (when, seq).
func keyLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

type wheelLevel struct {
	slots  [wheelSlots][]*event
	bitmap [bitmapWords]uint64
	count  int // events stored at this level (skips empty-level scans)
}

// wheel is the engine's future-event store: hierarchical bitmap-indexed
// timing wheels. Invariant: every queued event has when >= cur.
type wheel struct {
	cur    Time
	levels [wheelLevels]wheelLevel
	// free recycles drained slot slices, buffers and not records (no
	// pool.Free), so steady-state insert/drain cycles allocate nothing
	// (it is bounded by the number of slots ever nonempty at once).
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
	panic("simtime: event beyond the wheel's span")
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
// events plus the last instant of that slot, cascading higher levels
// down as needed. ok is false when the wheel is empty. Events the
// engine settles away (see settle) are dropped here rather than
// cascaded, and a re-keyed timer is cascaded under its new key.
//
// A level-l slot start is a multiple of the slot width 256^l ticks, so
// two candidate slots at different levels either start at the same time
// (the coarser one may hide earlier events and must cascade first) or
// the later one starts at or beyond the earlier one's end (safe).
// Choosing the minimum-start candidate, preferring the higher level on
// ties, is therefore sufficient for exact ordering.
func (c *Clock) nextSlot() (batch []*event, last Time, ok bool) {
	w := &c.wh
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
			// The last instant, not the exclusive end: the slot holding
			// the largest Time ends past it.
			return batch, start + (1<<tickShift - 1), true
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
			if live, _ := c.settle(e); !live {
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

// file queues e under its key: spliced into the run's unconsumed tail
// when it is due within the run's slot, into the wheel otherwise.
func (c *Clock) file(e *event) {
	if e.when <= c.runLast {
		i := c.runPos
		for i < len(c.run) && keyLess(c.run[i], e) {
			i++
		}
		c.run = append(c.run, nil)
		copy(c.run[i+1:], c.run[i:])
		c.run[i] = e
		return
	}
	c.wh.insert(e)
}

// resetTimer arms t for at. It reserves the key a fresh schedule would
// get, consuming the counter exactly as ScheduleAt does. A queued event
// keyed at or before the reserved key stays where it is: the engine
// reaches it first and re-files it then (settle). An event keyed after
// it would fire late, so it is abandoned and a new one filed under the
// reserved key.
func (c *Clock) resetTimer(t *Timer, at Time) {
	if at < c.now {
		at = c.now
	}
	t.when, t.seq = at, c.seq
	c.seq++
	if !t.armed {
		t.armed = true
		c.live++
	}
	key := event{when: at, seq: t.seq, tm: t}
	if e := t.ev; e != nil {
		if keyLess(e, &key) {
			return
		}
		e.tm = nil
	}
	e := c.events.Get()
	*e = key
	t.ev = e
	c.file(e)
}

// settle decides what becomes of e where the engine touches it
// (cascade, run). A plain event is live. An abandoned event, or the
// event of a stopped timer, is dead: it is detached and recycled. A
// timer event behind its timer's reserved key is re-keyed to it
// (moved), and the caller files it again. Drops and re-keys fire
// nothing and leave the clock alone.
func (c *Clock) settle(e *event) (live, moved bool) {
	if e.fn != nil {
		return true, false
	}
	t := e.tm
	if t == nil || !t.armed {
		if t != nil {
			t.ev = nil
		}
		*e = event{}
		c.events.Put(e)
		return false, false
	}
	if e.seq == t.seq {
		return true, false
	}
	e.when, e.seq = t.when, t.seq
	if c.freshRefile {
		e.seq = c.seq
		t.seq = e.seq
		c.seq++
	}
	return true, true
}

// head returns the next live event without consuming it, pulling and
// key-sorting the next wheel slot when the run is exhausted.
func (c *Clock) head() *event {
	for {
		for c.runPos < len(c.run) {
			e := c.run[c.runPos]
			live, moved := c.settle(e)
			if live && !moved {
				return e
			}
			c.run[c.runPos] = nil
			c.runPos++
			if live {
				c.file(e)
			}
		}
		batch, last, ok := c.nextSlot()
		if !ok {
			c.run = c.run[:0]
			c.runPos = 0
			return nil
		}
		// Copy live events into the reusable run buffer and hand the
		// slot slice back to the wheel: the steady-state refill path
		// allocates nothing. A timer re-keyed past the slot goes back
		// into the wheel.
		c.run = c.run[:0]
		for _, e := range batch {
			if live, _ := c.settle(e); !live {
				continue
			}
			if e.when <= last {
				c.run = append(c.run, e)
			} else {
				c.wh.insert(e)
			}
		}
		c.wh.recycle(batch)
		sortByKey(c.run)
		c.runPos = 0
		c.runLast = last
	}
}

// sortByKey orders a slot batch by (when, seq). Batches are typically
// small (one level-0 slot), so insertion sort wins and allocates
// nothing; large batches fall back to the library sort.
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

// fire consumes e, the event head() just returned, and runs it. The
// event is recycled before its callback runs, so a timer re-armed from
// its own callback reuses it.
func (c *Clock) fire(e *event) {
	c.run[c.runPos] = nil
	c.runPos++
	c.now = e.when
	c.live--
	fn := e.fn
	if t := e.tm; t != nil {
		t.ev = nil
		t.armed = false
		fn = t.fn
	}
	*e = event{}
	c.events.Put(e)
	fn()
	c.executed++
}

func (c *Clock) drive(until Time, bounded bool) {
	if c.running {
		panic("simtime: reentrant Run")
	}
	c.running = true
	defer func() { c.running = false }()
	c.stopped = false
	for !c.stopped {
		e := c.head()
		if e == nil || (bounded && e.when > until) {
			break
		}
		c.fire(e)
	}
	if bounded && c.now < until {
		c.now = until
	}
}
