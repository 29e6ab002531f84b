package criu

import (
	"slices"
	"testing"

	"nilicon/internal/simkernel"
)

// vmaStarts returns the start addresses of one process image's VMAs.
func vmaStarts(img *Image, pid int) []uint64 {
	for _, pi := range img.Procs {
		if pi.PID == pid {
			var out []uint64
			for _, v := range pi.VMAs {
				out = append(out, v.Start)
			}
			return out
		}
	}
	return nil
}

// TestCheckpointSeesEveryVMAChange checks the task-diag VMA cache
// against each path that changes a VMA list: a VMA mapped, unmapped or
// installed (restore) between two checkpoints shows up in (or vanishes
// from) the next image and leaves the previous image as it was, while a
// checkpoint with no change shares the previous image's list.
func TestCheckpointSeesEveryVMAChange(t *testing.T) {
	ctr, _ := newTestContainer()
	p, _ := addWorkProcess(ctr, "app", 4)
	e := NewEngine(ctr, allOptions)
	defer e.Close()
	checkpoint := func() *Image {
		img, _ := e.Checkpoint()
		ctr.Thaw()
		return img
	}
	prev := checkpoint()
	same := checkpoint()
	if a, b := vmaStarts(prev, p.PID), vmaStarts(same, p.PID); !slices.Equal(a, b) {
		t.Fatalf("unchanged VMA list read %v then %v", a, b)
	}
	if len(same.Procs[0].VMAs) > 0 && &same.Procs[0].VMAs[0] != &prev.Procs[0].VMAs[0] {
		t.Error("a checkpoint with no VMA change rebuilt the VMA list")
	}

	var mapped *simkernel.VMA
	for _, c := range []struct {
		name   string
		change func() uint64 // returns the changed VMA's start
		inNext bool
	}{
		{"Mmap", func() uint64 {
			mapped = p.Mem.Mmap(2*simkernel.PageSize, simkernel.ProtRead, "", ctr.ID)
			return mapped.Start
		}, true},
		{"InstallVMA", func() uint64 {
			v := p.Mem.InstallVMA(simkernel.VMA{Start: 0x7000_0000, End: 0x7000_0000 + simkernel.PageSize, Prot: simkernel.ProtRead})
			return v.Start
		}, true},
		{"Munmap", func() uint64 {
			p.Mem.Munmap(mapped)
			return mapped.Start
		}, false},
	} {
		before := vmaStarts(prev, p.PID)
		start := c.change()
		next := checkpoint()
		if got := slices.Contains(vmaStarts(next, p.PID), start); got != c.inNext {
			t.Errorf("%s: VMA %#x in the next image = %v, want %v", c.name, start, got, c.inNext)
		}
		if got := slices.Contains(before, start); got == c.inNext {
			t.Errorf("%s: VMA %#x in the previous image = %v, want %v", c.name, start, got, !c.inNext)
		}
		if after := vmaStarts(prev, p.PID); !slices.Equal(before, after) {
			t.Errorf("%s: the previous image's VMAs changed from %v to %v", c.name, before, after)
		}
		prev = next
	}
}

// TestCheckpointSeesEveryListenerChange checks the listener ports a
// checkpoint records: a port added by Listen or removed by Unlisten
// between two checkpoints shows in (or vanishes from) the next image
// and leaves the previous image as it was.
func TestCheckpointSeesEveryListenerChange(t *testing.T) {
	ctr, _ := newTestContainer()
	e := NewEngine(ctr, allOptions)
	defer e.Close()
	checkpoint := func() *Image {
		img, _ := e.Checkpoint()
		ctr.Thaw()
		return img
	}
	ctr.Stack.Listen(80, nil)
	prev := checkpoint()

	ctr.Stack.Listen(443, nil)
	next := checkpoint()
	if !slices.Equal(next.Listeners, []int{80, 443}) || !slices.Equal(prev.Listeners, []int{80}) {
		t.Fatalf("after Listen: next %v (want [80 443]), previous %v (want [80])", next.Listeners, prev.Listeners)
	}

	ctr.Stack.Unlisten(80)
	last := checkpoint()
	if !slices.Equal(last.Listeners, []int{443}) || !slices.Equal(next.Listeners, []int{80, 443}) {
		t.Fatalf("after Unlisten: next %v (want [443]), previous %v (want [80 443])", last.Listeners, next.Listeners)
	}
}
