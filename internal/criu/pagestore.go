package criu

import "nilicon/internal/simtime"

// PageStore holds the committed memory pages at the backup, merged
// across incremental checkpoints. The paper's most important CRIU
// optimization (§V-A) replaces the stock implementation — a linked list
// of per-checkpoint directories that must be searched linearly for every
// received page — with a four-level radix tree over the 36 low bits of
// the key (9 bits per level), mimicking hardware page tables, making
// per-page processing time short and independent of the number of
// previous checkpoints.
//
// The radix tree is the only structure the simulation keeps. A stock
// store (NewPageStore(false)) charges what the list walk would cost: it
// counts directories and remembers which one holds each key's latest
// copy, which is all the walk's cost depends on (DESIGN.md §4).
//
// Put stores a page under a 64-bit key (the core composes process ID and
// page number into the key). Cost() accumulates the modeled backup-CPU
// cost of the store's operations; the Table V backup-utilization
// experiment reads it.
type PageStore struct {
	root *radixTop
	cost simtime.Duration
	n    int

	// Stock layout only (dirOf non-nil): dirs counts the checkpoint
	// directories, and dirOf maps each key to the index of the
	// directory holding its latest copy.
	dirs  int
	dirOf map[uint64]int
}

// The tree's four levels each have their own node type, so a node holds
// only what its level needs: the three inner levels hold the next
// level's nodes, and a leaf holds the pages.
type (
	radixTop  [512]*radixMid
	radixMid  [512]*radixLow
	radixLow  [512]*radixLeaf
	radixLeaf [512][]byte
)

// Per-operation modeled costs. The stock list walk pays costListPerDir
// for every directory it scans before finding the page's previous copy
// (all of them for a new page), then costListAppend to file the page in
// the newest directory.
const (
	costRadixPut   = 120 * simtime.Nanosecond
	costListPerDir = 90 * simtime.Nanosecond
	costListAppend = 150 * simtime.Nanosecond
)

// NewPageStore returns an empty store. With optimized false it charges
// stock CRIU's linked-list layout instead of the radix tree's.
func NewPageStore(optimized bool) *PageStore {
	s := &PageStore{root: new(radixTop)}
	if !optimized {
		s.dirOf = make(map[uint64]int)
	}
	return s
}

// BeginCheckpoint marks the start of a new incremental checkpoint: the
// stock layout appends a directory to its list.
func (s *PageStore) BeginCheckpoint() {
	if s.dirOf != nil {
		s.dirs++
	}
}

func radixIdx(key uint64, level int) int {
	return int(key >> uint(9*(3-level)) & 0x1FF)
}

// Put stores (a copy of) data under key.
func (s *PageStore) Put(key uint64, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.PutOwned(key, cp)
}

// PutOwned stores data under key, taking ownership of the slice (no
// copy), and returns the buffer it replaces (nil for a new key). Callers
// must not reuse data afterwards. The backup agent uses this for
// received checkpoint pages, whose buffers are dead after the merge, and
// recycles the replaced buffer when nothing else can hold it
// (DESIGN.md §8).
func (s *PageStore) PutOwned(key uint64, data []byte) (old []byte) {
	mid := &s.root[radixIdx(key, 0)]
	if *mid == nil {
		*mid = new(radixMid)
	}
	low := &(*mid)[radixIdx(key, 1)]
	if *low == nil {
		*low = new(radixLow)
	}
	leaf := &(*low)[radixIdx(key, 2)]
	if *leaf == nil {
		*leaf = new(radixLeaf)
	}
	slot := &(*leaf)[radixIdx(key, 3)]
	old = *slot
	if old == nil {
		s.n++
	}
	*slot = data
	if s.dirOf != nil {
		s.chargeListPut(key, old != nil)
	} else {
		s.cost += costRadixPut
	}
	return old
}

// chargeListPut charges one stock put: the walk scans directories from
// the oldest until the one holding the key (every directory for a new
// key), then appends to the newest. The first put creates directory 0.
func (s *PageStore) chargeListPut(key uint64, stored bool) {
	if s.dirs == 0 {
		s.dirs = 1
	}
	scanned := s.dirs
	if stored {
		scanned = s.dirOf[key] + 1
	}
	s.cost += costListPerDir*simtime.Duration(scanned) + costListAppend
	s.dirOf[key] = s.dirs - 1
}

// Get returns the stored page (nil if absent). The result must not be
// mutated.
func (s *PageStore) Get(key uint64) []byte {
	mid := s.root[radixIdx(key, 0)]
	if mid == nil {
		return nil
	}
	low := mid[radixIdx(key, 1)]
	if low == nil {
		return nil
	}
	leaf := low[radixIdx(key, 2)]
	if leaf == nil {
		return nil
	}
	return leaf[radixIdx(key, 3)]
}

// Len returns the number of distinct keys stored.
func (s *PageStore) Len() int { return s.n }

// ForEach visits all pages in ascending key order.
func (s *PageStore) ForEach(fn func(key uint64, data []byte)) {
	s.ForRange(0, 1<<36, fn)
}

// ForRange visits pages with lo <= key < hi in ascending key order,
// descending only into subtrees that overlap the range. Restore uses it
// to extract one process's pages in O(pages in range), not O(pages
// stored).
func (s *PageStore) ForRange(lo, hi uint64, fn func(key uint64, data []byte)) {
	// in reports whether the span keys from base*span overlap the range.
	in := func(base, span uint64) bool { return base*span < hi && base*span+span > lo }
	if hi <= lo {
		return
	}
	for i0, mid := range s.root {
		if mid == nil || !in(uint64(i0), 1<<27) {
			continue
		}
		for i1, low := range mid {
			b1 := uint64(i0)<<9 | uint64(i1)
			if low == nil || !in(b1, 1<<18) {
				continue
			}
			for i2, leaf := range low {
				b2 := b1<<9 | uint64(i2)
				if leaf == nil || !in(b2, 1<<9) {
					continue
				}
				for i3, data := range leaf {
					if key := b2<<9 | uint64(i3); data != nil && lo <= key && key < hi {
						fn(key, data)
					}
				}
			}
		}
	}
}

// Cost returns the cumulative modeled CPU cost of all operations.
func (s *PageStore) Cost() simtime.Duration { return s.cost }
