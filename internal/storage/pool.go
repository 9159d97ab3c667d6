package storage

import (
	"errors"
	"fmt"
	"sync"

	"msql/internal/obs"
)

// Buffer-pool metrics, aggregated across every pool in the process and
// exported on /metrics by -debug-addr.
var (
	mPoolHits = obs.Default().Counter("msql_storage_pool_hits_total",
		"page requests served from a resident buffer-pool frame")
	mPoolMisses = obs.Default().Counter("msql_storage_pool_misses_total",
		"page requests that had to read the backing store")
	mPoolEvictions = obs.Default().Counter("msql_storage_pool_evictions_total",
		"resident pages evicted by the clock hand to make room")
	mPoolFlushes = obs.Default().Counter("msql_storage_pool_flushes_total",
		"dirty pages written back to the backing store")
)

// ErrPoolFull reports that every frame is pinned: there is nothing the
// clock hand may evict. It means the pool is smaller than the working
// set of simultaneously pinned pages, which the executor bounds to a
// handful per open iterator.
var ErrPoolFull = errors.New("storage: buffer pool exhausted (all frames pinned)")

// FileID names a Backing registered with a Pool.
type FileID uint32

type frameKey struct {
	file FileID
	page uint32
}

// Frame is one resident page. A Frame returned by Fetch or Alloc is
// pinned: it cannot be evicted until Unpin. Data aliases the pool's
// buffer — do not retain it past Unpin.
type Frame struct {
	key   frameKey
	buf   []byte
	pins  int
	dirty bool
	ref   bool
	used  bool
}

// Data returns the page bytes.
func (f *Frame) Data() []byte { return f.buf }

// PoolStats is a point-in-time snapshot of one pool's counters.
type PoolStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Flushes   int64
	Pages     int // configured frame count
	Resident  int // frames currently holding a page
	Pinned    int // frames currently pinned
}

// Pool is a fixed-size buffer pool shared by the heap files of one
// store. All page I/O goes through it; eviction uses the clock (second
// chance) algorithm over unpinned frames, writing dirty victims back to
// their backing first.
type Pool struct {
	// flushMu keeps FlushAll/FlushFile away from pages in mid-mutation:
	// HeapFile's mutators hold it shared from Fetch to Unpin, a flush
	// holds it exclusively, so a half-written page is never sealed and
	// written out. Eviction needs no such care — it only flushes unpinned
	// frames. Lock order: flushMu before mu.
	flushMu sync.RWMutex

	mu       sync.Mutex
	frames   []Frame
	index    map[frameKey]int
	hand     int
	backings map[FileID]Backing
	nextFile FileID
	stats    PoolStats
}

// DefaultPoolPages is the pool size used when a store does not specify
// one: 4096 frames × 4 KiB = 16 MiB, comfortably larger than the demo
// working sets so purely in-memory federations never evict.
const DefaultPoolPages = 4096

// NewPool creates a pool with npages frames (minimum 8).
func NewPool(npages int) *Pool {
	if npages < 8 {
		npages = 8
	}
	p := &Pool{
		frames:   make([]Frame, npages),
		index:    make(map[frameKey]int),
		backings: make(map[FileID]Backing),
	}
	p.stats.Pages = npages
	for i := range p.frames {
		p.frames[i].buf = make([]byte, PageSize)
	}
	return p
}

// Register attaches a backing and returns its id for Fetch/Alloc calls.
func (p *Pool) Register(b Backing) FileID {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nextFile
	p.nextFile++
	p.backings[id] = b
	return id
}

// Deregister discards a file's resident frames without flushing (the
// table was dropped) and detaches the backing.
func (p *Pool) Deregister(id FileID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if f.used && f.key.file == id {
			delete(p.index, f.key)
			f.used, f.dirty, f.ref, f.pins = false, false, false, 0
			p.stats.Resident--
		}
	}
	delete(p.backings, id)
}

// Fetch pins and returns the frame holding the page, reading it from
// the backing on a miss. Pages read from a backing are CRC-verified.
// The hit or miss is also recorded on pc (nil counts nothing),
// attributing the pool traffic to one statement's operator.
func (p *Pool) Fetch(file FileID, pageNo uint32, pc *PageCounters) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i, ok := p.index[frameKey{file, pageNo}]; ok {
		f := &p.frames[i]
		f.pins++
		f.ref = true
		p.stats.Hits++
		mPoolHits.Inc()
		pc.hit()
		return f, nil
	}
	p.stats.Misses++
	mPoolMisses.Inc()
	pc.miss()
	b, ok := p.backings[file]
	if !ok {
		return nil, fmt.Errorf("storage: fetch from unregistered file %d", file)
	}
	fi, err := p.victimLocked()
	if err != nil {
		return nil, err
	}
	f := &p.frames[fi]
	if err := b.ReadPage(pageNo, f.buf); err != nil {
		p.releaseVictimLocked(f)
		return nil, err
	}
	if err := verifyPage(f.buf); err != nil {
		p.releaseVictimLocked(f)
		return nil, fmt.Errorf("%w (file %d page %d)", err, file, pageNo)
	}
	p.installLocked(fi, frameKey{file, pageNo})
	return f, nil
}

// Alloc extends the file by one page and returns it pinned, initialized
// and dirty.
func (p *Pool) Alloc(file FileID) (uint32, *Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.backings[file]
	if !ok {
		return 0, nil, fmt.Errorf("storage: alloc on unregistered file %d", file)
	}
	fi, err := p.victimLocked()
	if err != nil {
		return 0, nil, err
	}
	f := &p.frames[fi]
	pageNo, err := b.Allocate()
	if err != nil {
		p.releaseVictimLocked(f)
		return 0, nil, err
	}
	initPage(f.buf)
	p.installLocked(fi, frameKey{file, pageNo})
	f.dirty = true
	return pageNo, f, nil
}

// Unpin releases a pin; dirty records that the caller modified the page.
func (p *Pool) Unpin(f *Frame, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.pins > 0 {
		f.pins--
	}
	if dirty {
		f.dirty = true
	}
	f.ref = true
}

// victimLocked finds a free or evictable frame and returns its index,
// detached from the pool's page index. Dirty victims are flushed.
func (p *Pool) victimLocked() (int, error) {
	// One full revolution may only clear reference bits; a second finds
	// any unpinned frame. Beyond two, everything is pinned.
	for pass := 0; pass < 2*len(p.frames); pass++ {
		i := p.hand
		f := &p.frames[i]
		p.hand = (p.hand + 1) % len(p.frames)
		if !f.used {
			f.used = true
			p.stats.Resident++
			return i, nil
		}
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if f.dirty {
			if err := p.flushFrameLocked(f); err != nil {
				return 0, err
			}
		}
		delete(p.index, f.key)
		p.stats.Evictions++
		mPoolEvictions.Inc()
		return i, nil
	}
	return 0, ErrPoolFull
}

// releaseVictimLocked returns a victim frame acquired by victimLocked to
// the free state after a failed fill.
func (p *Pool) releaseVictimLocked(f *Frame) {
	f.used, f.dirty, f.ref, f.pins = false, false, false, 0
	p.stats.Resident--
}

// installLocked binds a filled victim frame to its key.
func (p *Pool) installLocked(fi int, k frameKey) {
	f := &p.frames[fi]
	f.key = k
	f.pins = 1
	f.ref = true
	f.dirty = false
	p.index[k] = fi
}

// flushFrameLocked seals and writes one dirty frame back.
func (p *Pool) flushFrameLocked(f *Frame) error {
	b, ok := p.backings[f.key.file]
	if !ok {
		return fmt.Errorf("storage: flush to unregistered file %d", f.key.file)
	}
	sealPage(f.buf)
	if err := b.WritePage(f.key.page, f.buf); err != nil {
		return err
	}
	f.dirty = false
	p.stats.Flushes++
	mPoolFlushes.Inc()
	return nil
}

// FlushFile writes back every dirty resident page of one file.
func (p *Pool) FlushFile(file FileID) error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if f.used && f.dirty && f.key.file == file {
			if err := p.flushFrameLocked(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// FlushAll writes back every dirty resident page. It is safe to call
// while other goroutines insert, update and delete through HeapFiles of
// this pool: it waits for the row mutations in flight and holds off new
// ones for its duration.
func (p *Pool) FlushAll() error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if f.used && f.dirty {
			if err := p.flushFrameLocked(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Pinned = 0
	for i := range p.frames {
		if p.frames[i].used && p.frames[i].pins > 0 {
			s.Pinned++
		}
	}
	return s
}
