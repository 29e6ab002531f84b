// Package pool is the one free list of the simulator's recycled
// records (DESIGN.md §16); buffers keep their own lists.
package pool

// Free is a last-in first-out free list of *T records. It is
// parametrised on the struct, not on its pointer, so each record type
// gets its own compiled Get and Put.
type Free[T any] struct {
	items []*T
	fresh func() *T
}

// New returns an empty free list; fresh makes a record and binds its
// callbacks once.
func New[T any](fresh func() *T) Free[T] { return Free[T]{fresh: fresh} }

// Get returns the record put last, or a fresh one.
func (p *Free[T]) Get() *T {
	n := len(p.items)
	if n == 0 {
		return p.fresh()
	}
	x := p.items[n-1]
	p.items = p.items[:n-1]
	return x
}

// Put returns a record that its caller has reset and lets go of.
func (p *Free[T]) Put(x *T) { p.items = append(p.items, x) }

// Refs counts the holders of a record that more than one owner lets
// go of; the last to drop it puts the record back.
type Refs int32

// Drop removes one holder and reports whether it was the last. A drop
// below zero panics: it would put the record on its list twice.
func (r *Refs) Drop() bool {
	if *r <= 0 {
		panic("pool: reference count dropped below zero")
	}
	*r--
	return *r == 0
}
