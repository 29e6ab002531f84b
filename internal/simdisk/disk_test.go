package simdisk

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

func TestDiskReadWrite(t *testing.T) {
	d := NewDisk()
	if err := d.WriteBlock(7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := d.ReadBlock(7)
	if string(got[:5]) != "hello" {
		t.Fatalf("read back %q", got[:5])
	}
	if len(got) != BlockSize {
		t.Fatalf("block len = %d", len(got))
	}
	if d.Writes() != 1 {
		t.Fatalf("writes = %d, want 1", d.Writes())
	}
}

func TestDiskUnwrittenBlockIsZero(t *testing.T) {
	d := NewDisk()
	b := d.ReadBlock(99)
	for _, x := range b {
		if x != 0 {
			t.Fatal("unwritten block not zero")
		}
	}
}

func TestDiskOversizeWriteFails(t *testing.T) {
	d := NewDisk()
	if err := d.WriteBlock(0, make([]byte, BlockSize+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
}

func TestDiskReadIsCopy(t *testing.T) {
	d := NewDisk()
	_ = d.WriteBlock(0, []byte{1})
	b := d.ReadBlock(0)
	b[0] = 99
	if d.ReadBlock(0)[0] != 1 {
		t.Fatal("ReadBlock aliases storage")
	}
}

func TestChecksumEqualForEqualContent(t *testing.T) {
	a, b := NewDisk(), NewDisk()
	_ = a.WriteBlock(1, []byte("x"))
	_ = a.WriteBlock(5, []byte("y"))
	_ = b.WriteBlock(5, []byte("y"))
	_ = b.WriteBlock(1, []byte("x"))
	if a.Checksum() != b.Checksum() {
		t.Fatal("same content, different checksum")
	}
	_ = b.WriteBlock(1, []byte("z"))
	if a.Checksum() == b.Checksum() {
		t.Fatal("different content, same checksum")
	}
}

func TestChecksumIgnoresZeroBlocks(t *testing.T) {
	a, b := NewDisk(), NewDisk()
	_ = a.WriteBlock(3, []byte("data"))
	_ = b.WriteBlock(3, []byte("data"))
	_ = b.WriteBlock(9, make([]byte, BlockSize)) // explicit zeros
	if a.Checksum() != b.Checksum() {
		t.Fatal("explicit zero block changed checksum")
	}
}

func TestClone(t *testing.T) {
	a := NewDisk()
	_ = a.WriteBlock(2, []byte("orig"))
	b := a.Clone()
	if a.Checksum() != b.Checksum() {
		t.Fatal("clone differs")
	}
	_ = b.WriteBlock(2, []byte("mut"))
	if string(a.ReadBlock(2)[:4]) != "orig" {
		t.Fatal("clone aliases original")
	}
}

func TestDiskShorterOverwriteZeroFillsTail(t *testing.T) {
	d := NewDisk()
	_ = d.WriteBlock(4, bytes.Repeat([]byte{0xAB}, BlockSize))
	if err := d.WriteBlock(4, []byte("short")); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, BlockSize)
	copy(want, "short")
	if !bytes.Equal(d.ReadBlock(4), want) {
		t.Fatal("shorter overwrite left the old block's tail in place")
	}
	if d.Blocks() != 1 || d.Writes() != 2 {
		t.Fatalf("blocks=%d writes=%d, want 1 and 2", d.Blocks(), d.Writes())
	}
}

// TestDiskReadOutsSurviveOverwrite: a block is overwritten in place, so
// everything handed out before (ReadBlock's slice, a Clone, a CopyFrom
// target) must hold its own copy.
func TestDiskReadOutsSurviveOverwrite(t *testing.T) {
	d := NewDisk()
	_ = d.WriteBlock(1, []byte("before"))
	read := d.ReadBlock(1)
	clone := d.Clone()
	copied := NewDisk()
	copied.CopyFrom(d)
	want := d.Checksum()
	_ = d.WriteBlock(1, []byte("after!"))
	if string(read[:6]) != "before" {
		t.Errorf("ReadBlock result changed to %q by a later overwrite", read[:6])
	}
	for name, o := range map[string]*Disk{"clone": clone, "copy": copied} {
		if o.Checksum() != want || string(o.ReadBlock(1)[:6]) != "before" {
			t.Errorf("%s changed by a later overwrite of its source", name)
		}
	}
	// And the other direction: writing the copies leaves the source.
	_ = clone.WriteBlock(1, []byte("clone"))
	_ = copied.WriteBlock(1, []byte("copy"))
	if string(d.ReadBlock(1)[:6]) != "after!" {
		t.Error("writing a Clone or CopyFrom target changed the source disk")
	}
}

// BenchmarkDiskWriteBlock overwrites already-written blocks, the steady
// state of a synced KV store rewriting its records.
func BenchmarkDiskWriteBlock(b *testing.B) {
	d := NewDisk()
	data := bytes.Repeat([]byte{0x5A}, 1024)
	const blocks = 256
	for bn := uint64(0); bn < blocks; bn++ {
		_ = d.WriteBlock(bn, data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WriteBlock(uint64(i%blocks), data); err != nil {
			b.Fatal(err)
		}
	}
}

func newDRBDPair(c *simtime.Clock) (*DRBD, *DRBD, *simnet.Link) {
	link := simnet.NewLink(c, 50*simtime.Microsecond, 1_250_000_000)
	p, s := NewDRBDPair(NewDisk(), NewDisk(), link)
	return p, s, link
}

func TestDRBDWriteAppliesLocallyImmediately(t *testing.T) {
	c := simtime.NewClock()
	p, _, _ := newDRBDPair(c)
	if err := p.WriteBlock(1, []byte("now")); err != nil {
		t.Fatal(err)
	}
	if string(p.Local.ReadBlock(1)[:3]) != "now" {
		t.Fatal("local write not applied")
	}
}

func TestDRBDSecondaryBuffersUntilCommit(t *testing.T) {
	c := simtime.NewClock()
	p, s, _ := newDRBDPair(c)
	p.SetEpoch(0)
	_ = p.WriteBlock(1, []byte("e0"))
	p.Barrier(0)
	c.Run()
	if s.Buffered() != 1 {
		t.Fatalf("buffered = %d", s.Buffered())
	}
	if !s.BarrierReceived(0) {
		t.Fatal("barrier not received")
	}
	// Not yet on disk.
	if string(s.Local.ReadBlock(1)[:2]) == "e0" {
		t.Fatal("write applied before commit")
	}
	if err := s.Commit(0); err != nil {
		t.Fatal(err)
	}
	if string(s.Local.ReadBlock(1)[:2]) != "e0" {
		t.Fatal("commit did not apply")
	}
	if s.Buffered() != 0 {
		t.Fatal("buffer not drained")
	}
}

func TestDRBDCommitOnlyUpToEpoch(t *testing.T) {
	c := simtime.NewClock()
	p, s, _ := newDRBDPair(c)
	p.SetEpoch(0)
	_ = p.WriteBlock(1, []byte("a"))
	p.Barrier(0)
	p.SetEpoch(1)
	_ = p.WriteBlock(2, []byte("b"))
	p.Barrier(1)
	c.Run()
	_ = s.Commit(0)
	if string(s.Local.ReadBlock(1)[:1]) != "a" {
		t.Fatal("epoch 0 not committed")
	}
	if string(s.Local.ReadBlock(2)[:1]) == "b" {
		t.Fatal("epoch 1 committed early")
	}
	if s.Buffered() != 1 {
		t.Fatalf("buffered = %d, want epoch-1 write retained", s.Buffered())
	}
	if s.committed != 0 {
		t.Fatalf("committed = %d", s.committed)
	}
}

func TestDRBDDiscardAbove(t *testing.T) {
	c := simtime.NewClock()
	p, s, _ := newDRBDPair(c)
	p.SetEpoch(0)
	_ = p.WriteBlock(1, []byte("keep"))
	p.SetEpoch(1)
	_ = p.WriteBlock(2, []byte("drop"))
	c.Run()
	s.DiscardAbove(0)
	_ = s.Commit(99)
	if string(s.Local.ReadBlock(1)[:4]) != "keep" {
		t.Fatal("committed epoch lost")
	}
	var zero [4]byte
	if !bytes.Equal(s.Local.ReadBlock(2)[:4], zero[:]) {
		t.Fatal("uncommitted epoch survived discard")
	}
}

// TestDRBDCommitFiltersBufferInPlace: Commit, DiscardAbove and
// ApplyResync keep the surviving writes in arrival order, in the same
// array, and zero the vacated tail so dropped writes' data is released.
func TestDRBDCommitFiltersBufferInPlace(t *testing.T) {
	c := simtime.NewClock()
	p, s, _ := newDRBDPair(c)
	for i, e := range []uint64{1, 2, 1, 3, 2, 4, 3} {
		p.SetEpoch(e)
		_ = p.WriteBlock(uint64(i), []byte{byte(i)})
	}
	c.Run()
	arr := &s.buffer[:1][0]
	check := func(step string, wantBlocks ...uint64) {
		t.Helper()
		var got []uint64
		for _, op := range s.buffer {
			got = append(got, op.Block)
		}
		if fmt.Sprint(got) != fmt.Sprint(wantBlocks) {
			t.Fatalf("%s: buffered blocks %v, want %v", step, got, wantBlocks)
		}
		if &s.buffer[:1][0] != arr {
			t.Fatalf("%s: buffer reallocated", step)
		}
		for i, op := range s.buffer[len(s.buffer):cap(s.buffer)] {
			if op.Data != nil {
				t.Fatalf("%s: dropped slot %d still holds data", step, len(s.buffer)+i)
			}
		}
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	check("commit 1", 1, 3, 4, 5, 6)
	s.DiscardAbove(3)
	check("discard above 3", 1, 3, 4, 6)
	if err := s.ApplyResync(p.Local, 2); err != nil {
		t.Fatal(err)
	}
	check("resync through 2", 3, 6)
}

func TestDRBDRoleEnforcement(t *testing.T) {
	c := simtime.NewClock()
	p, s, _ := newDRBDPair(c)
	if err := s.WriteBlock(0, []byte("x")); err == nil {
		t.Fatal("secondary write accepted")
	}
	if err := p.Commit(0); err == nil {
		t.Fatal("primary commit accepted")
	}
}

func TestDRBDBarrierCallback(t *testing.T) {
	c := simtime.NewClock()
	p, s, _ := newDRBDPair(c)
	var got []uint64
	s.OnBarrier = func(e uint64) { got = append(got, e) }
	p.SetEpoch(0)
	_ = p.WriteBlock(1, []byte("x"))
	p.Barrier(0)
	p.SetEpoch(1)
	p.Barrier(1)
	c.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("barrier callbacks = %v", got)
	}
}

func TestDRBDWriteIsDeepCopied(t *testing.T) {
	c := simtime.NewClock()
	p, s, _ := newDRBDPair(c)
	buf := []byte("mutable")
	_ = p.WriteBlock(1, buf)
	buf[0] = 'X'
	c.Run()
	_ = s.Commit(0)
	if string(s.Local.ReadBlock(1)[:7]) != "mutable" {
		t.Fatal("DRBD shipped an aliased buffer")
	}
}

// Property: after shipping arbitrary writes with barriers and committing
// every epoch, primary and backup disks are identical; discarding the
// final uncommitted epoch leaves the backup identical to the primary as
// of the last barrier.
func TestPropertyDRBDConvergence(t *testing.T) {
	f := func(ops []struct {
		Block uint8
		Val   byte
		Cut   bool // start a new epoch after this op
	}) bool {
		c := simtime.NewClock()
		p, s, _ := newDRBDPair(c)
		epoch := uint64(0)
		p.SetEpoch(0)
		for _, op := range ops {
			if err := p.WriteBlock(uint64(op.Block), []byte{op.Val}); err != nil {
				return false
			}
			if op.Cut {
				p.Barrier(epoch)
				epoch++
				p.SetEpoch(epoch)
			}
		}
		p.Barrier(epoch)
		c.Run()
		if err := s.Commit(epoch); err != nil {
			return false
		}
		return p.Local.Checksum() == s.Local.Checksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
