package storage

import (
	"errors"
	"fmt"
)

// RID addresses one tuple: a page number and a slot within it.
type RID struct {
	Page uint32
	Slot uint16
}

// NilRID is an address no tuple can have (page numbers are dense from
// zero, but slot 0xFFFF exceeds any page's slot capacity).
var NilRID = RID{Page: ^uint32(0), Slot: ^uint16(0)}

// IsNil reports whether the RID is the sentinel.
func (r RID) IsNil() bool { return r == NilRID }

func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// HeapFile is one table's pages, accessed through a shared buffer pool.
// It keeps an in-memory free-space map (bytes free per page, rebuilt on
// open) so inserts find a page in O(1) without touching the heap.
//
// HeapFile methods are not safe for concurrent use on the same table;
// relstore's table locks serialize them, exactly as they serialized the
// map-backed tables before. Different tables of one pool may be written
// concurrently, also while the pool is being flushed (Pool.flushMu).
type HeapFile struct {
	pool  *Pool
	id    FileID
	pages uint32
	free  []uint16 // free bytes per page, insert-usable
	// The free-space map's index side: pages whose free space crossed
	// openThreshold are candidates for inserts that do not fit the last
	// page, so placement never scans the whole file.
	open     []uint32
	openMark map[uint32]bool
}

// openThreshold is the free-byte level at which a drained page becomes
// an insert candidate again.
const openThreshold = PageSize / 4

// OpenOptions controls how OpenHeapFile treats damaged pages.
type OpenOptions struct {
	// Repair reinitializes pages that fail CRC or shape verification
	// (torn by a crash between allocation and checkpoint) instead of
	// failing the open. Repaired pages lose their tuples.
	Repair bool
}

// NewHeapFile creates an empty heap over a fresh backing.
func NewHeapFile(pool *Pool, b Backing) *HeapFile {
	return &HeapFile{pool: pool, id: pool.Register(b), openMark: make(map[uint32]bool)}
}

// noteFree records a page's insertable free space (what an insert could
// use after in-page compaction) and maintains the open list.
func (h *HeapFile) noteFree(pg uint32, free int) {
	if free < 0 {
		free = 0
	}
	h.free[pg] = uint16(free)
	if free >= openThreshold && !h.openMark[pg] && pg != h.pages-1 {
		h.openMark[pg] = true
		h.open = append(h.open, pg)
	}
}

// OpenHeapFile attaches an existing backing and rebuilds the free-space
// map by scanning every page, verifying CRCs along the way. It returns
// the number of repaired pages (always zero unless opts.Repair).
func OpenHeapFile(pool *Pool, b Backing, opts OpenOptions) (*HeapFile, int, error) {
	h := &HeapFile{pool: pool, id: pool.Register(b)}
	n, err := b.NumPages()
	if err != nil {
		pool.Deregister(h.id)
		return nil, 0, err
	}
	h.pages = n
	h.free = make([]uint16, n)
	h.openMark = make(map[uint32]bool)
	repaired := 0
	for pg := uint32(0); pg < n; pg++ {
		f, err := pool.Fetch(h.id, pg)
		if err != nil {
			if !opts.Repair || !(errors.Is(err, ErrBadChecksum) || errors.Is(err, ErrBadPageShape)) {
				pool.Deregister(h.id)
				return nil, repaired, err
			}
			// Reinitialize the torn page in place.
			f, err = h.resetPage(pg)
			if err != nil {
				pool.Deregister(h.id)
				return nil, repaired, err
			}
			repaired++
		}
		h.noteFree(pg, page{f.Data()}.contiguousAfterCompact(true))
		pool.Unpin(f, false)
	}
	return h, repaired, nil
}

// resetPage overwrites a damaged page with a sealed empty page and
// fetches it back through the pool.
func (h *HeapFile) resetPage(pg uint32) (*Frame, error) {
	var buf [PageSize]byte
	initPage(buf[:])
	sealPage(buf[:])
	if err := h.backing().WritePage(pg, buf[:]); err != nil {
		return nil, err
	}
	return h.pool.Fetch(h.id, pg)
}

func (h *HeapFile) backing() Backing {
	h.pool.mu.Lock()
	defer h.pool.mu.Unlock()
	return h.pool.backings[h.id]
}

// NumPages returns the heap's page count.
func (h *HeapFile) NumPages() uint32 { return h.pages }

// Close flushes the heap's dirty pages and detaches it from the pool.
func (h *HeapFile) Close() error {
	if err := h.pool.FlushFile(h.id); err != nil {
		return err
	}
	h.pool.Deregister(h.id)
	return nil
}

// Drop detaches without flushing (DROP TABLE).
func (h *HeapFile) Drop() { h.pool.Deregister(h.id) }

// Flush writes back the heap's dirty pages.
func (h *HeapFile) Flush() error { return h.pool.FlushFile(h.id) }

// Sync fsyncs the backing.
func (h *HeapFile) Sync() error { return h.backing().Sync() }

// Insert places a tuple on a page with room — the last-used page when
// possible, any page with space otherwise, a fresh page as a last
// resort — and returns its RID.
func (h *HeapFile) Insert(data []byte) (RID, error) {
	h.pool.flushMu.RLock()
	defer h.pool.flushMu.RUnlock()
	return h.insert(data)
}

// insert is Insert for callers that already hold the pool's flushMu.
func (h *HeapFile) insert(data []byte) (RID, error) {
	if len(data) > maxTuple {
		return NilRID, fmt.Errorf("%w (%d bytes)", ErrTupleTooBig, len(data))
	}
	// Placement: the last page first (append locality), then drained
	// pages from the open list, then a fresh page. The free-space map is
	// conservative (freeSpace charges a slot), so a nominated page
	// nearly always fits; a rare ErrPageFull just falls through.
	if h.pages > 0 && int(h.free[h.pages-1]) >= len(data) {
		rid, ok, err := h.tryInsert(h.pages-1, data)
		if err != nil {
			return NilRID, err
		}
		if ok {
			return rid, nil
		}
	}
	for len(h.open) > 0 {
		pg := h.open[len(h.open)-1]
		if int(h.free[pg]) < len(data) {
			// Stale candidate (space consumed since it was listed).
			if int(h.free[pg]) < openThreshold {
				h.open = h.open[:len(h.open)-1]
				delete(h.openMark, pg)
			} else {
				break // has room for smaller tuples; keep listed
			}
			continue
		}
		rid, ok, err := h.tryInsert(pg, data)
		if err != nil {
			return NilRID, err
		}
		if ok {
			return rid, nil
		}
		h.open = h.open[:len(h.open)-1]
		delete(h.openMark, pg)
	}
	// The page losing last-page status stays reachable via the open list
	// if it still has room for smaller tuples.
	if h.pages > 0 {
		prev := h.pages - 1
		if int(h.free[prev]) >= openThreshold && !h.openMark[prev] {
			h.openMark[prev] = true
			h.open = append(h.open, prev)
		}
	}
	pg, f, err := h.pool.Alloc(h.id)
	if err != nil {
		return NilRID, err
	}
	p := page{f.Data()}
	slot, err := p.insert(data)
	if err != nil {
		h.pool.Unpin(f, true)
		return NilRID, err
	}
	h.pages = pg + 1
	h.free = append(h.free, 0)
	h.noteFree(pg, p.contiguousAfterCompact(true))
	h.pool.Unpin(f, true)
	return RID{Page: pg, Slot: uint16(slot)}, nil
}

// tryInsert attempts an insert on one page.
func (h *HeapFile) tryInsert(pg uint32, data []byte) (RID, bool, error) {
	f, err := h.pool.Fetch(h.id, pg)
	if err != nil {
		return NilRID, false, err
	}
	p := page{f.Data()}
	appended := p.liveCount() == p.slotCount() // no dead slot to reuse
	slot, err := p.insert(data)
	if err != nil {
		h.free[pg] = uint16(p.freeSpace())
		h.pool.Unpin(f, false)
		if errors.Is(err, ErrPageFull) {
			return NilRID, false, nil
		}
		return NilRID, false, err
	}
	if appended {
		// The tuple and its new slot entry came out of what the map held
		// (exact, or the conservative figure of a failed insert): an
		// append-only load never walks the slot directory.
		h.noteFree(pg, int(h.free[pg])-len(data)-slotSize)
	} else {
		h.noteFree(pg, p.contiguousAfterCompact(true))
	}
	h.pool.Unpin(f, true)
	return RID{Page: pg, Slot: uint16(slot)}, true, nil
}

// ReadPageCounted reads several tuples of one page under a single pin:
// fn is called with each rid's tuple bytes, in the order of rids. Every
// rid must lie on the page of rids[0]. The bytes alias the
// pinned frame and are valid only during the call; the page is unpinned
// before ReadPageCounted returns, so no pin outlives it. An error from fn
// stops the read and is returned as is. Pool traffic (one fetch) is
// additionally recorded on pc (nil-safe).
func (h *HeapFile) ReadPageCounted(rids []RID, pc *PageCounters, fn func(data []byte) error) error {
	if len(rids) == 0 {
		return nil
	}
	pg := rids[0].Page
	f, err := h.pool.FetchCounted(h.id, pg, pc)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(f, false)
	p := page{f.Data()}
	for _, rid := range rids {
		if rid.Page != pg {
			return fmt.Errorf("storage: read of %s in a batch of page %d", rid, pg)
		}
		data, err := p.read(int(rid.Slot))
		if err != nil {
			return fmt.Errorf("%w at %s", err, rid)
		}
		if err := fn(data); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the tuple at rid.
func (h *HeapFile) Delete(rid RID) error {
	h.pool.flushMu.RLock()
	defer h.pool.flushMu.RUnlock()
	f, err := h.pool.Fetch(h.id, rid.Page)
	if err != nil {
		return err
	}
	p := page{f.Data()}
	if err := p.delete(int(rid.Slot)); err != nil {
		h.pool.Unpin(f, false)
		return fmt.Errorf("%w at %s", err, rid)
	}
	h.noteFree(rid.Page, p.contiguousAfterCompact(true))
	h.pool.Unpin(f, true)
	return nil
}

// Update replaces the tuple at rid, in place when it fits, relocating
// to another page otherwise. It returns the tuple's RID afterwards,
// which callers must store back.
func (h *HeapFile) Update(rid RID, data []byte) (RID, error) {
	h.pool.flushMu.RLock()
	defer h.pool.flushMu.RUnlock()
	f, err := h.pool.Fetch(h.id, rid.Page)
	if err != nil {
		return NilRID, err
	}
	p := page{f.Data()}
	err = p.update(int(rid.Slot), data)
	if err == nil {
		h.noteFree(rid.Page, p.contiguousAfterCompact(true))
		h.pool.Unpin(f, true)
		return rid, nil
	}
	if !errors.Is(err, ErrPageFull) {
		h.pool.Unpin(f, false)
		return NilRID, fmt.Errorf("%w at %s", err, rid)
	}
	// Relocate: delete here, insert elsewhere.
	if derr := p.delete(int(rid.Slot)); derr != nil {
		h.pool.Unpin(f, false)
		return NilRID, fmt.Errorf("%w at %s", derr, rid)
	}
	h.noteFree(rid.Page, p.contiguousAfterCompact(true))
	h.pool.Unpin(f, true)
	return h.insert(data)
}

// Scan iterates the heap page-at-a-time in (page, slot) order, calling
// fn with each live tuple. The tuple bytes alias the pinned page and are
// only valid during the call. fn returning false stops the scan.
func (h *HeapFile) Scan(fn func(rid RID, data []byte) bool) error {
	return h.ScanCounted(fn, nil)
}

// ScanCounted is Scan with pool traffic additionally recorded on pc
// (nil-safe), attributing the page fetches to one statement's operator.
func (h *HeapFile) ScanCounted(fn func(rid RID, data []byte) bool, pc *PageCounters) error {
	for pg := uint32(0); pg < h.pages; pg++ {
		f, err := h.pool.FetchCounted(h.id, pg, pc)
		if err != nil {
			return err
		}
		p := page{f.Data()}
		n := p.slotCount()
		for s := 0; s < n; s++ {
			off, ln := p.slot(s)
			if off == 0 && ln == 0 {
				continue
			}
			if !fn(RID{Page: pg, Slot: uint16(s)}, f.Data()[off:off+ln]) {
				h.pool.Unpin(f, false)
				return nil
			}
		}
		h.pool.Unpin(f, false)
	}
	return nil
}
