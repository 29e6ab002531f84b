// Sharded simulation engine: one hierarchical timing wheel per lane,
// a (time, shardID, seq) total order, and conservative-lookahead
// barriers at the cross-shard edges.
//
// # Shards and lanes
//
// A *logical shard* is a determinism domain: one per simulated host
// (plus shard 0, the root, for fabric-level drivers — switches,
// campaign oracles, fleet control loops). Shards are created with
// NewShard and are part of the topology, so the total order
// (when, shard, seq) never depends on how the engine is configured.
// A *lane* is a physical event wheel; shard s lives on lane s mod L
// (or on the lane selected by PinNewShards). Running the same topology
// with L=1 or L=8 lanes only changes which wheel holds each event,
// never the order events fire in — that is the byte-identical-trace
// guarantee the chaos parity oracle checks.
//
// # Total order
//
// Every event is keyed (when, shard, seq) where shard is the shard
// *executing when the event was scheduled* (the scheduling context;
// the view's own shard when scheduled from driver code outside any
// event) and seq is that shard's private counter. Because each shard's
// execution is itself deterministic, keys are assigned identically no
// matter how many lanes exist or whether an event crossed a mailbox,
// so the merged order is reproducible by construction.
//
// # Ladder mode vs windowed mode
//
// By default the engine runs in "ladder" mode: a single goroutine pops
// the globally minimal key across all lane wheels, selected through a
// tournament (loser) tree — O(log lanes) per event, O(lanes) rebuilds
// only on actual cross-lane scheduling (see loser.go). This keeps
// exact serial semantics: cross-shard scheduling and shared state are
// legal.
//
// With SetWorkers(n>=1) and a positive lookahead (SetLookahead, or the
// minimum link latency reported via ObserveLookahead), the engine runs
// conservative windows instead. Each window it computes a *per-lane*
// horizon: lane B may safely drain every event below
//
//	limit(B) = min over other non-empty lanes A of head(A).when + λ
//
// because no cross-lane send issued by A at or after its current head
// can arrive before that (λ is the lookahead, re-read every window so
// a mid-run ObserveLookahead applies from the next window on). When B
// itself performs a cross-lane send arriving at time a, its own limit
// tightens to min(limit, a+λ): a causal response to that send can
// arrive as early as a+λ, and B must not drain past it before the next
// barrier merges the reply. An event exactly at its lane's horizon
// waits for the next window. Lanes with no other non-empty peer (or
// none at all) drain to the run bound — windows *adapt*: sparse
// cross-lane traffic yields wide windows, and only real traffic
// narrows them.
//
// Within a window lanes may run on the persistent worker pool
// (worker.go); lane code must then touch only its own shard's state
// and use SendFrom for cross-lane communication (arrival times are
// asserted against the sender's time plus λ). Campaign code that
// shares state across shards instead pins every shard to lane 0
// (PinNewShards), where a windowed drain is exactly the ladder order.
package simtime

import (
	"fmt"
	"sort"
	"sync/atomic"
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

// maxTime is the sentinel "no bound" horizon; far beyond any reachable
// virtual time, with headroom so adding a lookahead cannot overflow.
const maxTime = Time(1) << 62

// slabChunk is the per-lane Event allocation batch: events are handed
// out of chunked arrays so the steady-state schedule path amortizes one
// heap allocation across slabChunk events. Chunks are never reused —
// Cancel on a long-dead *Event must keep hitting its own memory — so a
// chunk is freed by the GC once every event in it is unreachable.
const slabChunk = 128

// keyLess is the engine's total order: (when, shard, seq).
func keyLess(a, b *Event) bool {
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
type keyHeap []*Event

func (h *keyHeap) push(e *Event) {
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

func (h *keyHeap) pop() *Event {
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
	slots  [wheelSlots][]*Event
	bitmap [bitmapWords]uint64
	count  int // events stored at this level (skips empty-level scans)
}

// wheel is one lane's future-event store: hierarchical bitmap-indexed
// timing wheels with a keyed overflow heap past the outermost span.
// Invariant: every queued event has when >= cur.
type wheel struct {
	cur      Time
	levels   [wheelLevels]wheelLevel
	overflow keyHeap
	count    int
	// free recycles drained slot slices so steady-state insert/drain
	// cycles allocate nothing (the freelist is bounded by the number of
	// slots ever nonempty at once).
	free [][]*Event
}

// insert files e at the lowest level whose slot number is less than one
// revolution past the cursor's. Choosing by slot-number difference
// rather than tick delta matters: a delay just under one revolution from
// a cursor late in its slot has a small enough tick delta but lands one
// full revolution ahead, in the very slot being scanned.
func (w *wheel) insert(e *Event) {
	w.count++
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

func (w *wheel) getSlot() []*Event {
	if n := len(w.free); n > 0 {
		s := w.free[n-1]
		w.free = w.free[:n-1]
		return s
	}
	return make([]*Event, 0, 8)
}

// recycle returns a drained slot slice to the freelist, dropping its
// event pointers for the GC.
func (w *wheel) recycle(s []*Event) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	w.free = append(w.free, s[:0])
}

// findSlot returns the first nonempty slot at level l, scanning
// circularly from the slot containing cur. start is the slot's absolute
// start time. Whole-empty bitmap words are skipped.
func (w *wheel) findSlot(l uint) (idx int, start Time, found bool) {
	lv := &w.levels[l]
	curSlotNum := (uint64(w.cur) >> tickShift) >> (l * wheelBits)
	s := int(curSlotNum & wheelMask)
	for off := 0; off < wheelSlots; off++ {
		i := (s + off) & wheelMask
		word := lv.bitmap[i>>6]
		if word == 0 {
			off += 63 - (i & 63) // skip rest of the empty word
			continue
		}
		if word&(1<<uint(i&63)) != 0 {
			slotNum := curSlotNum + uint64(off)
			return i, Time((slotNum << (l * wheelBits)) << tickShift), true
		}
	}
	return 0, 0, false
}

// nextSlot removes and returns the earliest nonempty level-0 window's
// events plus the exclusive end time of that window, cascading higher
// levels down as needed. ok is false when the wheel is empty.
//
// A level-l slot start is a multiple of the slot width 256^l ticks, so
// two candidate slots at different levels either start at the same time
// (the coarser one may hide earlier events and must cascade first) or
// the later one starts at or beyond the earlier one's end (safe).
// Choosing the minimum-start candidate, preferring the higher level on
// ties, is therefore sufficient for exact ordering.
func (w *wheel) nextSlot() (batch []*Event, end Time, ok bool) {
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
			// with any same-window events.
			e := w.overflow.pop()
			if e.when > w.cur {
				w.cur = e.when
			}
			w.count--
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
			w.count -= len(batch)
			if start > w.cur {
				w.cur = start
			}
			return batch, start + (1 << tickShift), true
		}
		// Cascade: advance to the slot and push its events one level
		// down. Deltas from the advanced cur are strictly below the slot
		// width, so every event lands at level <= bestL-1: progress.
		if bestStart > w.cur {
			w.cur = bestStart
		}
		lv := &w.levels[bestL]
		evs := lv.slots[bestIdx]
		lv.slots[bestIdx] = nil
		lv.bitmap[bestIdx>>6] &^= 1 << uint(bestIdx&63)
		lv.count -= len(evs)
		for _, e := range evs {
			w.count--
			w.insert(e)
		}
		w.recycle(evs)
	}
}

// lane is one physical event wheel plus the sorted "run" of the window
// currently being consumed. Invariant: wheel events have when >= runEnd;
// inserts below runEnd splice into the run's unconsumed tail.
type lane struct {
	eng      *ShardedClock
	idx      int
	now      Time
	wh       wheel
	run      []*Event
	runPos   int
	runEnd   Time
	outbox   []*Event // cross-lane sends awaiting the barrier
	inbox    []*Event // barrier staging: events arriving from other lanes
	mergeBuf []*Event // reusable scratch for the barrier merge
	limit    Time     // windowed: exclusive drain bound of the current window
	running  bool     // inside a window drain (windowed mode)
	curShard int32    // shard of the event currently executing
	executed uint64
	// live is this lane's contribution to Pending(). Each counter is
	// only ever touched by its lane's own execution context (or the
	// single driver thread), so no atomics are needed; cross-lane sends
	// count on the sender and settle on the receiver, which keeps the
	// sum — the only externally visible value — exact at barriers.
	live int64
	// cachedHead memoizes head() for the ladder's tournament tree;
	// invalidated by pop, insert, and cancel.
	cachedHead *Event
	headValid  bool
	// slab is the chunked Event allocator (see slabChunk).
	slab    []Event
	slabPos int
}

// alloc hands out the next Event from the lane's slab chunk. Lanes only
// allocate from their own execution context (or the driver thread), so
// no locking is needed even under parallel windows.
func (ln *lane) alloc() *Event {
	if ln.slabPos == len(ln.slab) {
		ln.slab = make([]Event, slabChunk)
		ln.slabPos = 0
	}
	e := &ln.slab[ln.slabPos]
	ln.slabPos++
	return e
}

// peek returns head() through the lane's cache: lanes whose queues did
// not change since the last look answer with two loads.
func (ln *lane) peek() *Event {
	if !ln.headValid {
		ln.cachedHead = ln.head()
		ln.headValid = true
	}
	return ln.cachedHead
}

// touched records that this lane's head may have changed underneath the
// ladder loop's tournament tree (cross-lane insert or cancel); the loop
// rebuilds the tree before the next pop. No-op outside ladder runs and
// for the lane the ladder is currently executing (its path is replayed
// with fix()).
func (ln *lane) touched() {
	if ln.eng.inLadder && int32(ln.idx) != ln.eng.ladderLane {
		ln.eng.treeStale = true
	}
}

func (ln *lane) insert(e *Event) {
	if ln.headValid && ln.cachedHead != nil && keyLess(ln.cachedHead, e) {
		// e sorts after the memoized head: the head — and therefore the
		// ladder tree's cached key for this lane — is unchanged. This is
		// the common case for cross-lane traffic (events land a network
		// latency in the future), and skipping the invalidation keeps
		// foreign inserts from forcing O(lanes) tree rebuilds.
	} else {
		ln.headValid = false
		ln.touched()
	}
	if e.when < ln.runEnd {
		i := ln.runPos
		for i < len(ln.run) && keyLess(ln.run[i], e) {
			i++
		}
		ln.run = append(ln.run, nil)
		copy(ln.run[i+1:], ln.run[i:])
		ln.run[i] = e
		return
	}
	ln.wh.insert(e)
}

// head returns the lane's next live event without consuming it, pulling
// and key-sorting the next wheel window when the run is exhausted.
func (ln *lane) head() *Event {
	for {
		for ln.runPos < len(ln.run) {
			e := ln.run[ln.runPos]
			if e.cancel {
				ln.run[ln.runPos] = nil
				ln.runPos++
				continue
			}
			return e
		}
		if ln.wh.count == 0 && len(ln.wh.overflow) == 0 {
			ln.run = ln.run[:0]
			ln.runPos = 0
			return nil
		}
		batch, end, ok := ln.wh.nextSlot()
		if !ok {
			ln.run = ln.run[:0]
			ln.runPos = 0
			return nil
		}
		// Copy live events into the lane's reusable run buffer and hand
		// the slot slice back to the wheel: the steady-state refill path
		// allocates nothing.
		ln.run = ln.run[:0]
		for _, e := range batch {
			if !e.cancel {
				ln.run = append(ln.run, e)
			}
		}
		ln.wh.recycle(batch)
		sortByKey(ln.run)
		ln.runPos = 0
		ln.runEnd = end
	}
}

// sortByKey orders a window batch by (when, shard, seq). Batches are
// typically small (one level-0 slot), so insertion sort wins and
// allocates nothing; large batches fall back to the library sort.
func sortByKey(evs []*Event) {
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

// pop consumes the event head() just returned.
func (ln *lane) pop() {
	ln.run[ln.runPos] = nil
	ln.runPos++
	ln.headValid = false
}

// drainWindow executes the lane's events with when < ln.limit in key
// order. In windowed mode this runs on a pool worker (or the driver);
// it touches only this lane's state. The limit is re-read after every
// event because the lane's own cross-lane sends tighten it (see
// sendFrom).
func (ln *lane) drainWindow() {
	limit := ln.limit
	ln.running = true
	ln.headValid = false
	for {
		run := ln.run
		pos := ln.runPos
		for pos < len(run) {
			e := run[pos]
			if e.cancel {
				run[pos] = nil
				pos++
				continue
			}
			if e.when >= limit {
				ln.runPos = pos
				goto out
			}
			run[pos] = nil
			pos++
			ln.runPos = pos
			if e.when > ln.now {
				ln.now = e.when
			}
			ln.curShard = e.target
			ln.live--
			e.fire()
			ln.executed++
			if ln.limit < limit {
				limit = ln.limit
			}
			run = ln.run // fn may have spliced into or grown the run
			pos = ln.runPos
		}
		ln.runPos = pos
		if ln.head() == nil { // pull the next wheel window
			break
		}
	}
out:
	if limit < maxTime && limit-1 > ln.now {
		ln.now = limit - 1
	}
	ln.running = false
}

// mergeInbox folds the barrier's staged cross-lane arrivals into the
// lane: one sort of the batch, then a single merge pass with the run's
// unconsumed tail (arrivals at or past runEnd go to the wheel). This
// replaces per-event splicing — O((run+inbox)) per barrier instead of
// O(run) per arrival.
func (ln *lane) mergeInbox() {
	if len(ln.inbox) == 0 {
		return
	}
	ln.headValid = false
	sortByKey(ln.inbox)
	j := len(ln.inbox)
	for j > 0 && ln.inbox[j-1].when >= ln.runEnd {
		ln.wh.insert(ln.inbox[j-1])
		j--
	}
	if j > 0 {
		tail := ln.run[ln.runPos:]
		buf := ln.mergeBuf[:0]
		a, b := 0, 0
		for a < len(tail) && b < j {
			if keyLess(ln.inbox[b], tail[a]) {
				buf = append(buf, ln.inbox[b])
				b++
			} else {
				buf = append(buf, tail[a])
				a++
			}
		}
		buf = append(buf, tail[a:]...)
		buf = append(buf, ln.inbox[b:j]...)
		ln.run = append(ln.run[:ln.runPos], buf...)
		clear(buf)
		ln.mergeBuf = buf[:0]
	}
	clear(ln.inbox)
	ln.inbox = ln.inbox[:0]
}

// ShardedClock is the sharded simulation engine. Create it with
// NewShardedClock, obtain *Clock views with Root and NewShard, and
// drive it through any view's Run/RunUntil/RunFor (or its own).
type ShardedClock struct {
	lanes    []*lane
	views    []*Clock // index = shard ID; views[0] is the root
	ctrs     []uint64 // per-shard key counters
	now      Time
	curShard int32 // executing shard in ladder mode; -1 outside events
	stopped  atomic.Bool
	running  bool
	windowed bool // a window drain is in progress
	winLA    Time // lookahead of the window in progress
	workers  int
	pin      int      // lane for shards from NewShard; -1 = round-robin
	la       Duration // explicit lookahead (SetLookahead)
	observed Duration // min link lookahead (ObserveLookahead)
	windows  uint64   // conservative windows run (telemetry/tests)

	// Ladder-mode tournament state (single driver goroutine only).
	inLadder   bool
	ladderLane int32
	treeStale  bool
	tree       loserTree

	// Windowed-mode state.
	active []*lane // reusable per-window active-lane set
	pool   *winPool
}

// NewShardedClock creates an engine with the given number of physical
// lanes (clamped to >= 1). Lane count is pure configuration: it never
// affects event order.
func NewShardedClock(lanes int) *ShardedClock {
	if lanes < 1 {
		lanes = 1
	}
	sc := &ShardedClock{curShard: -1, pin: -1}
	for i := 0; i < lanes; i++ {
		sc.lanes = append(sc.lanes, &lane{eng: sc, idx: i})
	}
	root := &Clock{eng: sc, shard: 0, lane: 0}
	sc.views = append(sc.views, root)
	sc.ctrs = append(sc.ctrs, 0)
	return sc
}

// Lanes returns the number of physical lanes.
func (sc *ShardedClock) Lanes() int { return len(sc.lanes) }

// Shards returns the number of logical shards (including the root).
func (sc *ShardedClock) Shards() int { return len(sc.views) }

// Root returns the fabric view: shard 0, for switches, campaign drivers
// and anything else that is not pinned to one simulated host.
func (sc *ShardedClock) Root() *Clock { return sc.views[0] }

// NewShard creates the next logical shard and returns its Clock view.
// Call once per simulated host, in topology order, so shard IDs — and
// with them the (when, shard, seq) total order — depend only on the
// topology, never on lane count.
func (sc *ShardedClock) NewShard() *Clock {
	id := int32(len(sc.views))
	laneIdx := int(id) % len(sc.lanes)
	if sc.pin >= 0 {
		laneIdx = sc.pin % len(sc.lanes)
	}
	v := &Clock{eng: sc, shard: id, lane: laneIdx}
	sc.views = append(sc.views, v)
	sc.ctrs = append(sc.ctrs, 0)
	return v
}

// PinNewShards directs subsequent NewShard calls onto the given lane
// (modulo the lane count); a negative lane restores the default
// round-robin placement. Two uses: campaign drivers that share state
// across shards pin everything to lane 0 so windowed runs are exactly
// ladder-ordered, and isolated topologies pin each host group onto its
// own lane so groups drain in parallel. Placement never affects event
// order — only which wheel holds each event.
func (sc *ShardedClock) PinNewShards(lane int) { sc.pin = lane }

// View returns the Clock view for shard id (Root for 0).
func (sc *ShardedClock) View(id int) *Clock { return sc.views[id] }

// SetLookahead sets an explicit conservative-lookahead bound,
// overriding the minimum observed from links.
func (sc *ShardedClock) SetLookahead(d Duration) { sc.la = d }

// ObserveLookahead reports a cross-shard link's minimum propagation
// delay; the engine keeps the minimum across all links as its barrier
// lookahead. simnet links call this when bound to a sharded view. A
// smaller value reported mid-run takes effect at the next window
// boundary, never the window in progress.
func (sc *ShardedClock) ObserveLookahead(d Duration) {
	if d <= 0 {
		return
	}
	if sc.observed == 0 || d < sc.observed {
		sc.observed = d
	}
}

// Lookahead returns the effective barrier lookahead: the explicit value
// if set, else the minimum link latency observed.
func (sc *ShardedClock) Lookahead() Duration {
	if sc.la > 0 {
		return sc.la
	}
	return sc.observed
}

// SetWorkers switches the engine into conservative-window mode with up
// to n goroutines draining lanes per window (n <= 0 restores ladder
// mode; n == 1 drains windows sequentially, still through the windowed
// path). Windowed mode additionally requires a positive Lookahead and
// more than one lane. Lane code must conform to shard isolation: within
// a window it may only touch its own shard's state and must use
// SendFrom across lanes (or pin all shards to one lane, see
// PinNewShards).
func (sc *ShardedClock) SetWorkers(n int) { sc.workers = n }

// Workers returns the configured worker count (0 = ladder mode).
func (sc *ShardedClock) Workers() int { return sc.workers }

// Windows returns the number of conservative windows the engine has
// run; it stays 0 whenever the ladder path is taken.
func (sc *ShardedClock) Windows() uint64 { return sc.windows }

// Now returns the engine's global virtual time.
func (sc *ShardedClock) Now() Time { return sc.now }

// Pending returns the number of scheduled events that have neither
// fired nor been canceled, across all lanes.
func (sc *ShardedClock) Pending() int {
	var n int64
	for _, ln := range sc.lanes {
		n += ln.live
	}
	return int(n)
}

// Executed returns the total number of events fired.
func (sc *ShardedClock) Executed() uint64 {
	var n uint64
	for _, ln := range sc.lanes {
		n += ln.executed
	}
	return n
}

func (sc *ShardedClock) viewNow(c *Clock) Time {
	ln := sc.lanes[c.lane]
	if sc.windowed && ln.running {
		return ln.now
	}
	return sc.now
}

func (sc *ShardedClock) scheduleAt(view *Clock, t Time, fn func()) *Event {
	ln := sc.lanes[view.lane]
	var schedShard int32
	if sc.windowed {
		if !ln.running {
			panic("simtime: cross-lane Schedule during a conservative window; use SendFrom")
		}
		schedShard = ln.curShard
		if t < ln.now {
			t = ln.now
		}
	} else {
		if sc.curShard >= 0 {
			schedShard = sc.curShard
		} else {
			schedShard = view.shard
		}
		if t < sc.now {
			t = sc.now
		}
	}
	e := ln.alloc()
	*e = Event{when: t, seq: sc.ctrs[schedShard], shard: schedShard, target: view.shard, fn: fn, eng: sc}
	sc.ctrs[schedShard]++
	ln.live++
	ln.insert(e)
	return e
}

func (sc *ShardedClock) sendFrom(src, dst *Clock, t Time, fn func()) *Event {
	if fn == nil {
		panic("simtime: SendFrom with nil function")
	}
	if !sc.windowed {
		return sc.scheduleAt(dst, t, fn)
	}
	srcLn := sc.lanes[src.lane]
	if !srcLn.running {
		panic("simtime: SendFrom outside lane execution during a window")
	}
	schedShard := srcLn.curShard
	if t < srcLn.now {
		t = srcLn.now
	}
	e := srcLn.alloc()
	*e = Event{when: t, seq: sc.ctrs[schedShard], shard: schedShard, target: dst.shard, fn: fn, eng: sc}
	sc.ctrs[schedShard]++
	srcLn.live++
	if dst.lane == src.lane {
		srcLn.insert(e)
		return e
	}
	if t < srcLn.now+sc.winLA {
		panic(fmt.Sprintf("simtime: cross-shard send arriving at %v violates lookahead %v from %v",
			t, Duration(sc.winLA), srcLn.now))
	}
	// A causal response to this send can arrive as early as t+λ: tighten
	// this lane's own window so it cannot drain past the earliest reply
	// before the next barrier merges it.
	if t+sc.winLA < srcLn.limit {
		srcLn.limit = t + sc.winLA
	}
	srcLn.outbox = append(srcLn.outbox, e)
	return e
}

func (sc *ShardedClock) cancelEvent(e *Event) {
	ln := sc.lanes[sc.views[e.target].lane]
	ln.live--
	// Canceling a non-head event leaves the head (and the ladder tree's
	// key for this lane) untouched: canceled events are skipped lazily.
	if !ln.headValid || ln.cachedHead == e {
		ln.headValid = false
		ln.touched()
	}
}

// flushOutboxes stages every lane's pending cross-lane sends into the
// destination lanes' inboxes, then merges each inbox in one batch.
func (sc *ShardedClock) flushOutboxes() {
	staged := false
	for _, ln := range sc.lanes {
		if len(ln.outbox) == 0 {
			continue
		}
		for _, e := range ln.outbox {
			sc.lanes[sc.views[e.target].lane].inbox = append(sc.lanes[sc.views[e.target].lane].inbox, e)
		}
		clear(ln.outbox)
		ln.outbox = ln.outbox[:0]
		staged = true
	}
	if !staged {
		return
	}
	for _, ln := range sc.lanes {
		ln.mergeInbox()
	}
}

// step fires the single globally-minimal event (ladder semantics).
func (sc *ShardedClock) step() bool {
	var best *lane
	var bestE *Event
	for _, ln := range sc.lanes {
		e := ln.peek()
		if e == nil {
			continue
		}
		if bestE == nil || keyLess(e, bestE) {
			bestE, best = e, ln
		}
	}
	if bestE == nil {
		return false
	}
	best.pop()
	sc.now = bestE.when
	best.now = bestE.when
	sc.curShard = bestE.target
	best.live--
	bestE.fire()
	best.executed++
	sc.curShard = -1
	return true
}

// runLaneSerial is the single-lane ladder: no cross-lane selection at
// all, just pop-and-execute in key order — the exact serial drain.
func (sc *ShardedClock) runLaneSerial(until Time, bounded bool) {
	ln := sc.lanes[0]
	for !sc.stopped.Load() {
		e := ln.head()
		if e == nil || (bounded && e.when > until) {
			return
		}
		ln.pop()
		sc.now = e.when
		ln.now = e.when
		sc.curShard = e.target
		ln.live--
		e.fire()
		ln.executed++
		sc.curShard = -1
	}
}

func (sc *ShardedClock) runLadder(until Time, bounded bool) {
	if len(sc.lanes) == 1 {
		sc.runLaneSerial(until, bounded)
		return
	}
	t := &sc.tree
	t.build(sc.lanes)
	sc.inLadder = true
	sc.treeStale = false
	defer func() { sc.inLadder = false }()
	for !sc.stopped.Load() {
		w := t.winner()
		best := sc.lanes[w]
		bestE := best.peek()
		if bestE == nil || (bounded && bestE.when > until) {
			return
		}
		// Burst drain: every other lane's head is at least the runner-up
		// key, so this lane's events strictly below it are globally
		// minimal and can be popped back to back without touching the
		// tree — one O(log lanes) fix per burst instead of per event.
		// A foreign-lane head change (cross-shard insert or cancel) sets
		// treeStale and breaks the burst; self-inserts are picked up by
		// the re-peek, which always yields the lane's true head.
		rw, rs, rq := t.runnerUp(w)
		sc.ladderLane = w
		for {
			best.pop()
			sc.now = bestE.when
			best.now = bestE.when
			sc.curShard = bestE.target
			best.live--
			bestE.fire()
			best.executed++
			sc.curShard = -1
			if sc.treeStale || sc.stopped.Load() {
				break
			}
			bestE = best.peek()
			if bestE == nil || (bounded && bestE.when > until) {
				break
			}
			if bestE.when > rw || (bestE.when == rw &&
				(bestE.shard > rs || (bestE.shard == rs && bestE.seq > rq))) {
				break
			}
		}
		if sc.treeStale {
			// An event touched a foreign lane's head: rebuild. Same
			// O(lanes) cost as the old scan, but paid only on cross-lane
			// traffic that actually changed a head.
			t.build(sc.lanes)
			sc.treeStale = false
		} else {
			t.fix(int(w))
		}
	}
}

func (sc *ShardedClock) runWindowed(until Time, bounded bool) {
	defer sc.stopPool()
	for !sc.stopped.Load() {
		sc.flushOutboxes()
		// Re-read λ every window so a smaller latency observed mid-run
		// shrinks the next window, never the one in progress.
		la := Time(sc.Lookahead())
		act := sc.active[:0]
		var minE *Event
		minW, secW := maxTime, maxTime
		minCount := 0
		for _, ln := range sc.lanes {
			e := ln.peek()
			if e == nil {
				continue
			}
			act = append(act, ln)
			switch {
			case e.when < minW:
				secW, minW, minCount = minW, e.when, 1
			case e.when == minW:
				minCount++
			case e.when < secW:
				secW = e.when
			}
			if minE == nil || keyLess(e, minE) {
				minE = e
			}
		}
		sc.active = act
		if minE == nil {
			for _, ln := range sc.lanes {
				if ln.now > sc.now {
					sc.now = ln.now
				}
			}
			return
		}
		if bounded && minE.when > until {
			return
		}
		if minE.when > sc.now {
			sc.now = minE.when
		}
		sc.winLA = la
		// Per-lane adaptive horizons: lane B is bounded only by the other
		// non-empty lanes' heads (plus λ). A lane with no busy peer — or
		// the only busy lane — drains freely to the run bound.
		for _, ln := range act {
			other := minW
			if ln.cachedHead.when == minW && minCount == 1 {
				other = secW
			}
			limit := maxTime
			if other < maxTime {
				limit = other + la
			}
			if bounded && limit > until+1 {
				limit = until + 1
			}
			ln.limit = limit
		}
		sc.windowed = true
		if sc.workers > 1 && len(act) > 1 {
			sc.drainParallel(act)
		} else {
			for _, ln := range act {
				ln.drainWindow()
			}
		}
		sc.windowed = false
		sc.windows++
		// Advance global time to the window floor (exclusive bound all
		// lanes respected). Mailbox arrivals are always at or past their
		// receiver's limit, so this never overtakes the next window's
		// first event.
		floor := maxTime
		for _, ln := range act {
			if ln.limit < floor {
				floor = ln.limit
			}
		}
		if floor < maxTime && floor-1 > sc.now {
			sc.now = floor - 1
		}
	}
}

func (sc *ShardedClock) run(until Time, bounded bool) {
	if sc.running {
		panic("simtime: reentrant Run on ShardedClock")
	}
	sc.running = true
	defer func() { sc.running = false }()
	sc.stopped.Store(false)
	// A previous windowed run interrupted by Stop may have left sends
	// staged; deliver them before draining in either mode.
	sc.flushOutboxes()
	if sc.workers > 0 && sc.Lookahead() > 0 && len(sc.lanes) > 1 {
		sc.runWindowed(until, bounded)
	} else {
		sc.runLadder(until, bounded)
	}
	if bounded && sc.now < until {
		sc.now = until
	}
	for _, ln := range sc.lanes {
		if ln.now < sc.now {
			ln.now = sc.now
		}
	}
}

// Run fires events until no lane has any left or Stop is called.
func (sc *ShardedClock) Run() { sc.run(0, false) }

// RunUntil fires events with time <= t, then sets the engine to t.
func (sc *ShardedClock) RunUntil(t Time) { sc.run(t, true) }

// RunFor is shorthand for RunUntil(Now().Add(d)).
func (sc *ShardedClock) RunFor(d Duration) { sc.RunUntil(sc.now.Add(d)) }

// Stop makes a Run/RunUntil in progress return: after the current event
// in ladder mode, after the current window in windowed mode.
func (sc *ShardedClock) Stop() { sc.stopped.Store(true) }
