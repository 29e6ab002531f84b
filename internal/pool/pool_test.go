package pool

import "testing"

type rec struct{ id int }

func counting() (*Free[rec], *int) {
	made := 0
	p := New(func() *rec {
		made++
		return &rec{id: made}
	})
	return &p, &made
}

// The constructor runs only when the list is empty, and a record put
// back is the one the next Get hands out.
func TestFreeReusesWhatWasPut(t *testing.T) {
	p, made := counting()
	a, b := p.Get(), p.Get()
	if *made != 2 || a == b {
		t.Fatalf("two Gets from an empty list made %d records", *made)
	}
	p.Put(a)
	p.Put(b)
	if got := p.Get(); got != b {
		t.Fatalf("Get returned record %d, want %d, the one put last", got.id, b.id)
	}
	if got := p.Get(); got != a {
		t.Fatalf("Get returned record %d, want %d", got.id, a.id)
	}
	if *made != 2 {
		t.Fatalf("the constructor ran %d times while the list held records, want 2 in all", *made)
	}
	if c := p.Get(); *made != 3 || c == a || c == b {
		t.Fatalf("Get on an emptied list made %d records, want a third", *made)
	}
}

func TestFreeSteadyStateAllocatesNothing(t *testing.T) {
	p, _ := counting()
	p.Put(p.Get())
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); n != 0 {
		t.Fatalf("a Get and Put of a recycled record allocated %v times", n)
	}
}

func TestRefsLastDropReports(t *testing.T) {
	r := Refs(1)
	r++
	if r.Drop() {
		t.Fatal("the first of two drops reported the last holder")
	}
	if !r.Drop() {
		t.Fatal("the last drop did not report it")
	}
}

// A drop past zero would put the record on its list twice; it panics.
func TestRefsDropBelowZeroPanics(t *testing.T) {
	r := Refs(1)
	r.Drop()
	defer func() {
		if recover() == nil {
			t.Fatal("a second drop of the last holder did not panic")
		}
	}()
	r.Drop()
}
