package criu

import (
	"sort"

	"nilicon/internal/simtime"
)

// PageStore holds the committed memory pages at the backup, merged
// across incremental checkpoints. The paper's most important CRIU
// optimization (§V-A) replaces the stock implementation — a linked list
// of per-checkpoint directories that must be searched linearly for every
// received page — with a four-level radix tree mimicking hardware page
// tables, making per-page processing time short and independent of the
// number of previous checkpoints.
//
// Put stores a page under a 64-bit key (the core composes process ID and
// page number into the key). Cost() accumulates the modeled backup-CPU
// cost of the store's operations; the Table V backup-utilization
// experiment reads it.
type PageStore interface {
	// BeginCheckpoint marks the start of a new incremental checkpoint.
	BeginCheckpoint()
	// Put stores (a copy of) data under key.
	Put(key uint64, data []byte)
	// PutOwned stores data under key, taking ownership of the slice
	// (no copy), and returns the buffer it replaces (nil for a new key).
	// Callers must not reuse data afterwards. The backup agent uses this
	// for received checkpoint pages, whose buffers are dead after the
	// merge, and recycles the replaced buffer when nothing else can
	// hold it (DESIGN.md §8).
	PutOwned(key uint64, data []byte) (old []byte)
	// Get returns the stored page (nil if absent). The result must not
	// be mutated.
	Get(key uint64) []byte
	// Len returns the number of distinct keys stored.
	Len() int
	// ForEach visits all pages in ascending key order.
	ForEach(fn func(key uint64, data []byte))
	// ForRange visits pages with lo <= key < hi in ascending key order.
	// Restore uses it to extract one process's pages without scanning
	// the whole store once per process.
	ForRange(lo, hi uint64, fn func(key uint64, data []byte))
	// Cost returns the cumulative modeled CPU cost of all operations.
	Cost() simtime.Duration
}

// Per-operation modeled costs. The list store pays the scan cost once
// per existing checkpoint directory per received page.
const (
	costRadixPut   = 120 * simtime.Nanosecond
	costListPerDir = 90 * simtime.Nanosecond
	costListAppend = 150 * simtime.Nanosecond
)

// pageRec is one stored page.
type pageRec struct {
	key  uint64
	data []byte
}

// ListStore is the stock CRIU layout: a linked list of checkpoint
// directories, each holding that checkpoint's pages. For every received
// page the list is walked to find and remove a previous copy, so the
// per-page cost grows with the number of checkpoints taken.
type ListStore struct {
	dirs [][]pageRec
	cost simtime.Duration
	n    int
}

// NewListStore returns an empty list store.
func NewListStore() *ListStore { return &ListStore{} }

// BeginCheckpoint appends a new directory to the list.
func (s *ListStore) BeginCheckpoint() {
	s.dirs = append(s.dirs, nil)
}

// Put walks every prior directory to remove an older copy of the page,
// then appends the new copy to the current directory.
func (s *ListStore) Put(key uint64, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.PutOwned(key, cp)
}

// PutOwned is Put without the defensive copy.
func (s *ListStore) PutOwned(key uint64, data []byte) (old []byte) {
	if len(s.dirs) == 0 {
		s.dirs = append(s.dirs, nil)
	}
	found := false
	for di := 0; di < len(s.dirs); di++ {
		s.cost += costListPerDir
		dir := s.dirs[di]
		for i := range dir {
			if dir[i].key == key {
				old = dir[i].data
				last := len(dir) - 1
				dir[i] = dir[last]
				s.dirs[di] = dir[:last]
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		// Scanned the whole list without a hit.
		s.n++
	}
	cur := len(s.dirs) - 1
	s.dirs[cur] = append(s.dirs[cur], pageRec{key: key, data: data})
	s.cost += costListAppend
	return old
}

// Get linearly searches the directories (newest first).
func (s *ListStore) Get(key uint64) []byte {
	for di := len(s.dirs) - 1; di >= 0; di-- {
		for _, r := range s.dirs[di] {
			if r.key == key {
				return r.data
			}
		}
	}
	return nil
}

// Len returns the number of distinct pages.
func (s *ListStore) Len() int { return s.n }

// ForEach visits pages in ascending key order.
func (s *ListStore) ForEach(fn func(uint64, []byte)) {
	var all []pageRec
	for _, dir := range s.dirs {
		all = append(all, dir...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	for _, r := range all {
		fn(r.key, r.data)
	}
}

// ForRange visits pages with lo <= key < hi in ascending key order. The
// list layout has no index, so the directories are still scanned in
// full, but only matching pages are collected and sorted.
func (s *ListStore) ForRange(lo, hi uint64, fn func(uint64, []byte)) {
	var hits []pageRec
	for _, dir := range s.dirs {
		for _, r := range dir {
			if r.key >= lo && r.key < hi {
				hits = append(hits, r)
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].key < hits[j].key })
	for _, r := range hits {
		fn(r.key, r.data)
	}
}

// Cost returns the cumulative modeled CPU cost.
func (s *ListStore) Cost() simtime.Duration { return s.cost }

// Dirs returns the number of checkpoint directories (for tests).
func (s *ListStore) Dirs() int { return len(s.dirs) }

// RadixStore is NiLiCon's replacement: a four-level radix tree over the
// 36 low bits of the key (9 bits per level), mimicking hardware page
// tables. Per-page cost is constant.
type RadixStore struct {
	root *radixNode
	cost simtime.Duration
	n    int
}

type radixNode struct {
	children [512]*radixNode
	leaves   [512][]byte
}

// NewRadixStore returns an empty radix store.
func NewRadixStore() *RadixStore { return &RadixStore{root: &radixNode{}} }

// BeginCheckpoint is a no-op for the radix layout.
func (s *RadixStore) BeginCheckpoint() {}

func radixIdx(key uint64, level int) int {
	return int(key >> uint(9*(3-level)) & 0x1FF)
}

// Put stores the page in O(levels).
func (s *RadixStore) Put(key uint64, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.PutOwned(key, cp)
}

// PutOwned is Put without the defensive copy.
func (s *RadixStore) PutOwned(key uint64, data []byte) (old []byte) {
	n := s.root
	for level := 0; level < 3; level++ {
		i := radixIdx(key, level)
		if n.children[i] == nil {
			n.children[i] = &radixNode{}
		}
		n = n.children[i]
	}
	i := radixIdx(key, 3)
	old = n.leaves[i]
	if old == nil {
		s.n++
	}
	n.leaves[i] = data
	s.cost += costRadixPut
	return old
}

// Get walks the tree.
func (s *RadixStore) Get(key uint64) []byte {
	n := s.root
	for level := 0; level < 3; level++ {
		n = n.children[radixIdx(key, level)]
		if n == nil {
			return nil
		}
	}
	return n.leaves[radixIdx(key, 3)]
}

// Len returns the number of distinct pages.
func (s *RadixStore) Len() int { return s.n }

// ForEach visits pages in ascending key order.
func (s *RadixStore) ForEach(fn func(uint64, []byte)) {
	var walk func(n *radixNode, prefix uint64, level int)
	walk = func(n *radixNode, prefix uint64, level int) {
		if level == 3 {
			for i := 0; i < 512; i++ {
				if n.leaves[i] != nil {
					fn(prefix<<9|uint64(i), n.leaves[i])
				}
			}
			return
		}
		for i := 0; i < 512; i++ {
			if n.children[i] != nil {
				walk(n.children[i], prefix<<9|uint64(i), level+1)
			}
		}
	}
	walk(s.root, 0, 0)
}

// ForRange visits pages with lo <= key < hi in ascending key order,
// descending only into subtrees that overlap the range — the radix
// structure makes extracting one process's pages O(pages in range), not
// O(pages stored).
func (s *RadixStore) ForRange(lo, hi uint64, fn func(uint64, []byte)) {
	if hi <= lo {
		return
	}
	var walk func(n *radixNode, prefix uint64, level int)
	walk = func(n *radixNode, prefix uint64, level int) {
		// span is the number of keys one entry at this level covers.
		span := uint64(1) << uint(9*(3-level))
		for i := 0; i < 512; i++ {
			base := prefix<<9 | uint64(i)
			start := base * span
			if start >= hi || start+span <= lo {
				continue
			}
			if level == 3 {
				if n.leaves[i] != nil {
					fn(base, n.leaves[i])
				}
			} else if n.children[i] != nil {
				walk(n.children[i], base, level+1)
			}
		}
	}
	walk(s.root, 0, 0)
}

// Cost returns the cumulative modeled CPU cost.
func (s *RadixStore) Cost() simtime.Duration { return s.cost }
