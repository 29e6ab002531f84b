package simdisk

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"nilicon/internal/simfs"
	"nilicon/internal/simkernel"
	"nilicon/internal/simnet"
	"nilicon/internal/simtime"
)

// TestDRBDCommitAdoptsShippedBlock: the secondary's disk takes the
// shipped op's buffer as the block itself instead of copying it, and
// that buffer is the secondary's alone: a later primary write to the
// same block neither reaches the committed block nor reuses its buffer.
func TestDRBDCommitAdoptsShippedBlock(t *testing.T) {
	c := simtime.NewClock()
	p, s, _ := newDRBDPair(c)
	p.SetEpoch(0)
	_ = p.WriteBlock(3, []byte("first"))
	p.Barrier(0)
	c.Run()
	shipped := s.buffer[0].Data
	if len(shipped) != BlockSize {
		t.Fatalf("shipped op holds %d bytes, want a zero-padded full block", len(shipped))
	}
	if &shipped[0] == &p.Local.blocks[3][0] {
		t.Fatal("the shipped op shares the primary's block")
	}
	if err := s.Commit(0); err != nil {
		t.Fatal(err)
	}
	if &s.Local.blocks[3][0] != &shipped[0] {
		t.Fatal("Commit copied the shipped block instead of adopting it")
	}
	p.SetEpoch(1)
	_ = p.WriteBlock(3, []byte("second"))
	c.Run()
	if got := s.Local.ReadBlock(3); string(got[:6]) != "first\x00" {
		t.Fatalf("committed block reads %q before epoch 1 commits", got[:6])
	}
	if &s.buffer[0].Data[0] == &shipped[0] {
		t.Fatal("the next write was shipped in the committed block's buffer")
	}
	if err := s.Commit(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Local.ReadBlock(3); string(got[:6]) != "second" {
		t.Fatalf("block reads %q after epoch 1 commits", got[:6])
	}
}

// syncedPair is an O_SYNC file on a file system over a DRBD pair, with
// a stand-in for the backup agent's fs-cache merge: each epoch's Fgetfc
// pages replace the previous ones, and a replaced buffer goes back to
// the page pool unless the same buffer arrived again (the backup's
// rule).
type syncedPair struct {
	c     *simtime.Clock
	p, s  *DRBD
	fs    *simfs.FS
	f     *simfs.Inode
	held  map[int64][]byte
	epoch uint64
	n     int
	buf   []byte
}

// syncedPages and syncedEpochWrites shape the steady state: 1 KiB writes
// spread over 64 pages, 16 of them per epoch.
const (
	syncedPages       = 64
	syncedEpochWrites = 16
)

func newSyncedPair() *syncedPair {
	c := simtime.NewClock()
	p, s, _ := newDRBDPair(c)
	fs := simfs.New(c, p)
	f := fs.Create("/db")
	f.Sync = true
	return &syncedPair{c: c, p: p, s: s, fs: fs, f: f,
		held: make(map[int64][]byte), buf: make([]byte, 1024)}
}

// write makes one 1 KiB synced write and closes an epoch (Fgetfc,
// barrier, delivery, commit) after every syncedEpochWrites of them.
func (sp *syncedPair) write() error {
	binary.LittleEndian.PutUint64(sp.buf, uint64(sp.n))
	page := int64(sp.n*7) % syncedPages
	off := page*simfs.PageSize + int64(sp.n%4)*1024
	if err := sp.fs.WriteAt(sp.f, off, sp.buf); err != nil {
		return err
	}
	sp.n++
	if sp.n%syncedEpochWrites != 0 {
		return nil
	}
	for _, pe := range sp.fs.Fgetfc().Pages {
		if old := sp.held[pe.Idx]; old != nil && &old[0] != &pe.Data[0] {
			simkernel.RecyclePage(old)
		}
		sp.held[pe.Idx] = pe.Data
	}
	sp.p.Barrier(sp.epoch)
	sp.c.Run()
	if err := sp.s.Commit(sp.epoch); err != nil {
		return err
	}
	sp.epoch++
	sp.p.SetEpoch(sp.epoch)
	return nil
}

// TestSyncedWriteAllocsBounded: a synced write moves its page through
// the cache, the primary disk, DRBD's shipped op and the backup disk.
// In steady state every one of those buffers is either written in place
// or drawn from the page pool that the secondary's commit and the
// backup's fs-cache merge refill, so a write allocates only its event
// bookkeeping. Copying at DRBD and at Fgetfc costs two fresh 4 KiB
// buffers per write instead.
func TestSyncedWriteAllocsBounded(t *testing.T) {
	const writes = 20000
	sp := newSyncedPair()
	for i := 0; i < 4*syncedPages*syncedEpochWrites; i++ {
		if err := sp.write(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < writes; i++ {
		if err := sp.write(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perWrite := float64(after.TotalAlloc-before.TotalAlloc) / writes
	t.Logf("%.0f B allocated per synced write", perWrite)
	const limit = 1024.0
	if perWrite >= limit {
		t.Fatalf("%.0f B allocated per synced write, want < %.0f: a block or cache page is copied into a fresh buffer",
			perWrite, limit)
	}
	if sp.p.Local.Checksum() != sp.s.Local.Checksum() {
		t.Fatal("backup disk differs from the primary's after every epoch committed")
	}
	for idx, data := range sp.held {
		got, _ := sp.fs.ReadAt(sp.f, idx*simfs.PageSize, simfs.PageSize)
		if !bytes.Equal(got, data) {
			t.Fatalf("held fs-cache page %d differs from the cache after its epoch", idx)
		}
	}
}

// BenchmarkSyncedWrite is one 1 KiB O_SYNC write through a DRBD pair,
// its share of the epoch's Fgetfc, barrier and commit included.
func BenchmarkSyncedWrite(b *testing.B) {
	sp := newSyncedPair()
	for i := 0; i < syncedPages*syncedEpochWrites; i++ {
		if err := sp.write(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sp.write(); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDRBDReplication drives a primary and one or two secondaries
// through random writes (full and short), epochs with barriers,
// commits, discards, resyncs and link cuts, against a map model of what
// each secondary's disk and buffer must hold. After every commit or
// resync every block of every secondary is checked, so a shipped or
// adopted buffer that is recycled while still held shows up as a wrong
// block once the pool hands it to a later write.
func FuzzDRBDReplication(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 0, 0, 7, 0, 0, 2, 3, 3, 4, 0, 1})
	f.Add([]byte{1, 0, 3, 1, 9, 7, 1, 2, 5, 3, 6, 0, 4, 1, 0, 2, 7, 1, 3, 4, 0})
	f.Add([]byte{1, 2, 0, 1, 1, 8, 3, 5, 0, 4, 6, 1, 3, 7, 0, 0, 2, 2, 3, 4, 1, 6, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		type op struct {
			bn    uint64
			data  []byte
			epoch uint64
		}
		type model struct {
			disk   map[uint64][]byte
			buffer []op
		}
		c := simtime.NewClock()
		p := NewDRBDPrimary(NewDisk())
		peers := 1 + int(next()%2)
		secs := make([]*DRBD, peers)
		links := make([]*simnet.Link, peers)
		models := make([]*model, peers)
		for i := range secs {
			links[i] = simnet.NewLink(c, 50*simtime.Microsecond, 1_250_000_000)
			secs[i] = p.AttachSecondary(NewDisk(), links[i])
			models[i] = &model{disk: make(map[uint64][]byte)}
		}
		primary := make(map[uint64][]byte)
		block := func(data []byte) []byte {
			b := make([]byte, BlockSize)
			copy(b, data)
			return b
		}
		check := func(i int, step string) {
			t.Helper()
			s, m := secs[i], models[i]
			if s.Buffered() != len(m.buffer) {
				t.Fatalf("%s: peer %d buffers %d writes, model %d", step, i, s.Buffered(), len(m.buffer))
			}
			for bn := uint64(0); bn < 8; bn++ {
				want := m.disk[bn]
				if want == nil {
					want = make([]byte, BlockSize)
				}
				if got := s.Local.ReadBlock(bn); !bytes.Equal(got, want) {
					t.Fatalf("%s: peer %d block %d differs from the model", step, i, bn)
				}
			}
		}
		epoch, seq := uint64(0), 0
		for len(in) > 0 {
			switch next() % 8 {
			case 0, 1, 2:
				seq++
				bn := uint64(next() % 8)
				n := BlockSize
				if l := next(); l%2 == 1 {
					n = int(l%64) + 8
				}
				data := bytes.Repeat([]byte{byte(seq)}, n)
				binary.LittleEndian.PutUint64(data, uint64(seq))
				want := block(data)
				if err := p.WriteBlock(bn, data); err != nil {
					t.Fatal(err)
				}
				clear(data) // the caller's buffer is its own again
				primary[bn] = want
				for i, m := range models {
					if !links[i].Down() {
						m.buffer = append(m.buffer, op{bn, want, epoch})
					}
				}
			case 3:
				p.Barrier(epoch)
				epoch++
				p.SetEpoch(epoch)
			case 4:
				i := int(next()) % peers
				e := epoch - min(epoch, uint64(next()%3))
				if err := secs[i].Commit(e); err != nil {
					t.Fatal(err)
				}
				m := models[i]
				rest := m.buffer[:0]
				for _, o := range m.buffer {
					if o.epoch <= e {
						m.disk[o.bn] = o.data
					} else {
						rest = append(rest, o)
					}
				}
				m.buffer = rest
				check(i, "commit")
			case 5:
				i := int(next()) % peers
				e := epoch - min(epoch, uint64(next()%3))
				secs[i].DiscardAbove(e)
				m := models[i]
				rest := m.buffer[:0]
				for _, o := range m.buffer {
					if o.epoch <= e {
						rest = append(rest, o)
					}
				}
				m.buffer = rest
			case 6:
				i := int(next()) % peers
				e := epoch - min(epoch, uint64(next()%3))
				if err := secs[i].ApplyResync(p.Local, e); err != nil {
					t.Fatal(err)
				}
				m := models[i]
				m.disk = make(map[uint64][]byte, len(primary))
				for bn, b := range primary {
					m.disk[bn] = b
				}
				rest := m.buffer[:0]
				for _, o := range m.buffer {
					if o.epoch > e {
						rest = append(rest, o)
					}
				}
				m.buffer = rest
				check(i, "resync")
			case 7:
				i := int(next()) % peers
				links[i].SetDown(!links[i].Down())
			}
			// Deliver everything in flight: a write or barrier reaches
			// a peer exactly when its link is up at this point.
			c.Run()
		}
		for bn, want := range primary {
			if !bytes.Equal(p.Local.ReadBlock(bn), want) {
				t.Fatalf("primary block %d differs from the model", bn)
			}
		}
		for i := range secs {
			check(i, "end")
		}
	})
}
