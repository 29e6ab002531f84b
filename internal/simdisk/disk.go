// Package simdisk provides the simulated block devices and the
// DRBD-style disk replication NiLiCon uses (§II-A, §IV): the primary and
// backup have separate disks with initially identical content; during
// each epoch the primary applies writes locally and ships them
// asynchronously to the backup, which buffers them in memory; a barrier
// marks the end of an epoch's writes; the backup applies an epoch's
// writes only after the corresponding container state is committed, and
// discards uncommitted writes on failover.
package simdisk

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"nilicon/internal/simkernel"
)

// BlockSize is the device block size in bytes.
const BlockSize = 4096

// Disk is one host's block device. It is the only owner of its blocks:
// a write overwrites the block in place, a DRBD commit hands it the
// shipped buffer (adopt), and every read-out (ReadBlock, Clone,
// CopyFrom) hands out a copy.
type Disk struct {
	blocks map[uint64][]byte
	writes int64
}

// NewDisk creates an empty disk.
func NewDisk() *Disk {
	return &Disk{blocks: make(map[uint64][]byte)}
}

// WriteBlock stores data at block bn. Data longer than BlockSize is an
// error; shorter data is zero-padded. Only a block never written before
// allocates.
func (d *Disk) WriteBlock(bn uint64, data []byte) error {
	if len(data) > BlockSize {
		return fmt.Errorf("simdisk: write of %d bytes exceeds block size", len(data))
	}
	b, ok := d.blocks[bn]
	if !ok {
		b = make([]byte, BlockSize)
		d.blocks[bn] = b
	}
	n := copy(b, data)
	clear(b[n:])
	d.writes++
	return nil
}

// adopt makes data, a full block nobody else holds, block bn's storage
// and returns the replaced block to simkernel's page pool: the disk was
// its only holder.
func (d *Disk) adopt(bn uint64, data []byte) {
	if len(data) != BlockSize {
		panic(fmt.Sprintf("simdisk: adopt of %d bytes, want a full block", len(data)))
	}
	simkernel.RecyclePage(d.blocks[bn])
	d.blocks[bn] = data
	d.writes++
}

// ReadBlock returns the content of block bn (all zeros if never written).
// The returned slice is a copy the caller owns; a written block's copy
// comes from simkernel's page pool.
func (d *Disk) ReadBlock(bn uint64) []byte {
	if b, ok := d.blocks[bn]; ok {
		return simkernel.CopyPage(b)
	}
	return make([]byte, BlockSize)
}

// Blocks returns the number of blocks ever written.
func (d *Disk) Blocks() int { return len(d.blocks) }

// Writes returns the number of block writes.
func (d *Disk) Writes() int64 { return d.writes }

// Checksum returns a digest over all written blocks; two disks with the
// same logical content have equal checksums.
func (d *Disk) Checksum() [32]byte {
	bns := make([]uint64, 0, len(d.blocks))
	for bn := range d.blocks {
		bns = append(bns, bn)
	}
	sort.Slice(bns, func(i, j int) bool { return bns[i] < bns[j] })
	h := sha256.New()
	var num [8]byte
	zero := make([]byte, BlockSize)
	for _, bn := range bns {
		// Skip all-zero blocks so a never-written block and an
		// explicitly zeroed block compare equal.
		if string(d.blocks[bn]) == string(zero) {
			continue
		}
		binary.LittleEndian.PutUint64(num[:], bn)
		h.Write(num[:])
		h.Write(d.blocks[bn])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Clone returns a deep copy (used to give primary and backup identical
// initial content).
func (d *Disk) Clone() *Disk {
	nd := NewDisk()
	for bn, b := range d.blocks {
		nb := make([]byte, BlockSize)
		copy(nb, b)
		nd.blocks[bn] = nb
	}
	return nd
}

// CopyFrom replaces this disk's content with a deep copy of src's (full
// resynchronization: the backup disk is overwritten with the shipped
// snapshot). Operation counters are preserved.
func (d *Disk) CopyFrom(src *Disk) {
	d.blocks = make(map[uint64][]byte, len(src.blocks))
	for bn, b := range src.blocks {
		nb := make([]byte, BlockSize)
		copy(nb, b)
		d.blocks[bn] = nb
	}
}
