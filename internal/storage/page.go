package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// PageSize is the fixed size of every heap page, chosen to match the
// common OS page size so FileBacking reads and writes are aligned.
const PageSize = 4096

// pageHeaderSize is the fixed page header:
//
//	0:4   crc32 (IEEE) over bytes [4:PageSize], computed at flush time
//	4:6   slotCount — entries in the slot directory, dead ones included
//	6:8   freeHigh — offset of the lowest tuple byte (data grows down)
//	8:10  liveCount — slots that currently hold a tuple
//	10:12 reserved (zero)
//
// The slot directory starts at pageHeaderSize and grows upward, four
// bytes per slot: u16 tuple offset, u16 tuple length. A dead slot is
// offset=0,length=0 (offset 0 is inside the header, so it can never
// address a live tuple).
const pageHeaderSize = 12

const slotSize = 4

// Page errors.
var (
	ErrPageFull     = errors.New("storage: page full")
	ErrBadChecksum  = errors.New("storage: page checksum mismatch (torn page)")
	ErrBadSlot      = errors.New("storage: no such slot")
	ErrTupleTooBig  = errors.New("storage: tuple larger than a page")
	ErrBadPageShape = errors.New("storage: malformed page header")
)

// maxTuple is the largest tuple a page can hold: one slot plus the data.
const maxTuple = PageSize - pageHeaderSize - slotSize

// page wraps a PageSize byte slice with the slotted-page operations. The
// slice is owned by a buffer-pool frame; page never allocates.
type page struct{ b []byte }

// initPage formats b as an empty page.
func initPage(b []byte) {
	for i := range b {
		b[i] = 0
	}
	binary.LittleEndian.PutUint16(b[6:8], PageSize)
}

func (p page) slotCount() int { return int(binary.LittleEndian.Uint16(p.b[4:6])) }
func (p page) freeHigh() int  { return int(binary.LittleEndian.Uint16(p.b[6:8])) }
func (p page) liveCount() int { return int(binary.LittleEndian.Uint16(p.b[8:10])) }

func (p page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p.b[4:6], uint16(n)) }
func (p page) setFreeHigh(n int)  { binary.LittleEndian.PutUint16(p.b[6:8], uint16(n)) }
func (p page) setLiveCount(n int) { binary.LittleEndian.PutUint16(p.b[8:10], uint16(n)) }

// slot returns the offset/length pair of slot i.
func (p page) slot(i int) (off, ln int) {
	base := pageHeaderSize + i*slotSize
	return int(binary.LittleEndian.Uint16(p.b[base : base+2])),
		int(binary.LittleEndian.Uint16(p.b[base+2 : base+4]))
}

func (p page) setSlot(i, off, ln int) {
	base := pageHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(p.b[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(p.b[base+2:base+4], uint16(ln))
}

// freeSpace is the number of payload bytes an insert of a new tuple may
// use, accounting for the slot entry it would add.
func (p page) freeSpace() int {
	free := p.freeHigh() - (pageHeaderSize + p.slotCount()*slotSize)
	// A fresh tuple needs its slot entry too, unless a dead slot can be
	// reused; be conservative and always charge for one.
	free -= slotSize
	if free < 0 {
		return 0
	}
	return free
}

// insert places data in the page and returns its slot number. It reuses
// a dead slot when one exists, compacts the page when free space is
// sufficient but fragmented, and returns ErrPageFull otherwise.
func (p page) insert(data []byte) (int, error) {
	if len(data) > maxTuple {
		return 0, fmt.Errorf("%w (%d bytes)", ErrTupleTooBig, len(data))
	}
	slot := -1
	if p.liveCount() < p.slotCount() { // else every slot is live: nothing to reuse
		for i := 0; i < p.slotCount(); i++ {
			if off, ln := p.slot(i); off == 0 && ln == 0 {
				slot = i
				break
			}
		}
	}
	need := len(data)
	if slot < 0 {
		need += slotSize
	}
	low := pageHeaderSize + p.slotCount()*slotSize
	if p.freeHigh()-low < need {
		if p.contiguousAfterCompact(slot < 0) < len(data) {
			return 0, ErrPageFull
		}
		p.compact()
		low = pageHeaderSize + p.slotCount()*slotSize
		if p.freeHigh()-low < need {
			return 0, ErrPageFull
		}
	}
	off := p.freeHigh() - len(data)
	copy(p.b[off:], data)
	p.setFreeHigh(off)
	if slot < 0 {
		slot = p.slotCount()
		p.setSlotCount(slot + 1)
	}
	p.setSlot(slot, off, len(data))
	p.setLiveCount(p.liveCount() + 1)
	return slot, nil
}

// contiguousAfterCompact computes how many payload bytes a compaction
// would free up, optionally charging for one new slot entry.
func (p page) contiguousAfterCompact(newSlot bool) int {
	used := 0
	for i := 0; i < p.slotCount(); i++ {
		_, ln := p.slot(i)
		used += ln
	}
	low := pageHeaderSize + p.slotCount()*slotSize
	if newSlot {
		low += slotSize
	}
	return PageSize - low - used
}

// compact rewrites live tuples contiguously at the high end of the page,
// squeezing out holes left by deletes and relocated updates.
func (p page) compact() {
	var buf [PageSize]byte
	high := PageSize
	n := p.slotCount()
	type ent struct{ slot, off, ln int }
	for i := 0; i < n; i++ {
		off, ln := p.slot(i)
		if off == 0 && ln == 0 {
			continue
		}
		high -= ln
		copy(buf[high:], p.b[off:off+ln])
		p.setSlot(i, high, ln)
	}
	copy(p.b[high:], buf[high:])
	p.setFreeHigh(high)
}

// read returns the tuple bytes of a slot. The returned slice aliases the
// page buffer; callers must copy or decode before unpinning.
func (p page) read(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.slotCount() {
		return nil, ErrBadSlot
	}
	off, ln := p.slot(slot)
	if off == 0 && ln == 0 {
		return nil, ErrBadSlot
	}
	return p.b[off : off+ln], nil
}

// delete removes a slot's tuple, leaving a dead slot entry for reuse.
func (p page) delete(slot int) error {
	if slot < 0 || slot >= p.slotCount() {
		return ErrBadSlot
	}
	off, ln := p.slot(slot)
	if off == 0 && ln == 0 {
		return ErrBadSlot
	}
	p.setSlot(slot, 0, 0)
	p.setLiveCount(p.liveCount() - 1)
	if off == p.freeHigh() {
		// Cheap partial reclaim: the deleted tuple was the lowest one.
		p.setFreeHigh(off + ln)
	}
	return nil
}

// update replaces a slot's tuple in place when the new data fits the old
// footprint, or via delete+insert inside the same page when there is
// room. It returns ErrPageFull when the page cannot hold the new tuple;
// the heap file then relocates to another page.
func (p page) update(slot int, data []byte) error {
	if slot < 0 || slot >= p.slotCount() {
		return ErrBadSlot
	}
	off, ln := p.slot(slot)
	if off == 0 && ln == 0 {
		return ErrBadSlot
	}
	if len(data) <= ln {
		copy(p.b[off:], data)
		p.setSlot(slot, off, len(data))
		return nil
	}
	// Delete then re-insert into the same slot if the page has room.
	if p.contiguousAfterCompact(false)+ln < len(data) {
		return ErrPageFull
	}
	p.setSlot(slot, 0, 0)
	if off == p.freeHigh() {
		p.setFreeHigh(off + ln)
	}
	low := pageHeaderSize + p.slotCount()*slotSize
	if p.freeHigh()-low < len(data) {
		p.compact()
	}
	noff := p.freeHigh() - len(data)
	copy(p.b[noff:], data)
	p.setFreeHigh(noff)
	p.setSlot(slot, noff, len(data))
	return nil
}

// checksum computes the page CRC over everything after the CRC field.
func checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b[4:]) }

// sealPage stamps the CRC; called by the pool immediately before a page
// is written to its backing.
func sealPage(b []byte) { binary.LittleEndian.PutUint32(b[0:4], checksum(b)) }

// verifyPage checks the CRC and the header's structural invariants;
// pages read from a backing pass through it before use. An all-zero
// page (allocated but never flushed) is rejected as torn unless it is
// exactly the zero value, which cannot occur for a sealed page because
// initPage sets freeHigh.
func verifyPage(b []byte) error {
	if len(b) != PageSize {
		return ErrBadPageShape
	}
	if binary.LittleEndian.Uint32(b[0:4]) != checksum(b) {
		return ErrBadChecksum
	}
	p := page{b}
	if p.freeHigh() > PageSize || p.freeHigh() < pageHeaderSize ||
		pageHeaderSize+p.slotCount()*slotSize > p.freeHigh() ||
		p.liveCount() > p.slotCount() {
		return ErrBadPageShape
	}
	for i := 0; i < p.slotCount(); i++ {
		off, ln := p.slot(i)
		if off == 0 && ln == 0 {
			continue
		}
		if off < pageHeaderSize+p.slotCount()*slotSize || off+ln > PageSize {
			return ErrBadPageShape
		}
	}
	return nil
}
