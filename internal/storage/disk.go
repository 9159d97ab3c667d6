package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// Backing is where a heap file's pages live when they are not in the
// buffer pool: a real file under -data-dir, or an in-memory stand-in.
// Page numbers are dense, 0..NumPages-1; Allocate extends by one page.
// Implementations must be safe for concurrent use — the pool serializes
// per-frame operations but distinct frames flush concurrently.
type Backing interface {
	ReadPage(page uint32, buf []byte) error
	WritePage(page uint32, buf []byte) error
	NumPages() (uint32, error)
	Allocate() (uint32, error)
	Sync() error
	Close() error
}

// ErrTruncatedFile reports a heap file whose size is not a whole number
// of pages — the tail page was torn by a crash mid-write.
var ErrTruncatedFile = errors.New("storage: heap file size is not page-aligned (truncated tail)")

// MemBacking simulates a disk with a slice of pages. It is the default
// backing: eviction and checkpointing exercise the same code paths as a
// real file, the bytes just stay in RAM.
type MemBacking struct {
	mu    sync.RWMutex
	pages [][]byte
}

// NewMemBacking returns an empty in-memory backing.
func NewMemBacking() *MemBacking { return &MemBacking{} }

// ReadPage copies the page into buf.
func (m *MemBacking) ReadPage(page uint32, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(page) >= len(m.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", page)
	}
	copy(buf, m.pages[page])
	return nil
}

// WritePage copies buf over the page.
func (m *MemBacking) WritePage(page uint32, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(page) >= len(m.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", page)
	}
	copy(m.pages[page], buf)
	return nil
}

// NumPages returns the allocated page count.
func (m *MemBacking) NumPages() (uint32, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return uint32(len(m.pages)), nil
}

// Allocate extends the backing by one zero page.
func (m *MemBacking) Allocate() (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = append(m.pages, make([]byte, PageSize))
	return uint32(len(m.pages) - 1), nil
}

// Sync is a no-op for memory.
func (m *MemBacking) Sync() error { return nil }

// Close releases the pages.
func (m *MemBacking) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = nil
	return nil
}

// FileBacking stores pages in a regular file, one PageSize block per
// page, read and written with positional I/O. It remembers whether it
// was written since its last successful fsync, so a checkpoint pays an
// fsync only for the files a commit actually dirtied.
type FileBacking struct {
	mu    sync.Mutex
	f     *os.File
	pages uint32
	// dirty is set before every write, even one that fails, and cleared
	// only by a successful fsync. A freshly opened file starts dirty: a
	// crash may have left writes no fsync ever covered.
	dirty bool
}

// OpenFileBacking opens or creates the heap file at path. A file whose
// size is not a multiple of PageSize is refused with ErrTruncatedFile;
// the caller decides whether to repair (drop the torn tail) or fail.
func OpenFileBacking(path string) (*FileBacking, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("%w: %s is %d bytes", ErrTruncatedFile, path, st.Size())
	}
	return &FileBacking{f: f, pages: uint32(st.Size() / PageSize), dirty: true}, nil
}

// RepairFileBacking opens the heap file at path, truncating a torn tail
// page if present. Used when reopening after a crash: a torn tail can
// only be an allocation that no checkpoint ever referenced.
func RepairFileBacking(path string) (*FileBacking, bool, error) {
	fb, err := OpenFileBacking(path)
	if err == nil {
		return fb, false, nil
	}
	if !errors.Is(err, ErrTruncatedFile) {
		return nil, false, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, false, err
	}
	whole := st.Size() / PageSize
	if err := f.Truncate(whole * PageSize); err != nil {
		f.Close()
		return nil, false, err
	}
	return &FileBacking{f: f, pages: uint32(whole), dirty: true}, true, nil
}

// ReadPage reads the page into buf.
func (fb *FileBacking) ReadPage(page uint32, buf []byte) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if page >= fb.pages {
		return fmt.Errorf("storage: read of unallocated page %d", page)
	}
	_, err := fb.f.ReadAt(buf[:PageSize], int64(page)*PageSize)
	return err
}

// WritePage writes buf at the page's offset.
func (fb *FileBacking) WritePage(page uint32, buf []byte) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if page >= fb.pages {
		return fmt.Errorf("storage: write of unallocated page %d", page)
	}
	fb.dirty = true
	_, err := fb.f.WriteAt(buf[:PageSize], int64(page)*PageSize)
	return err
}

// NumPages returns the allocated page count.
func (fb *FileBacking) NumPages() (uint32, error) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.pages, nil
}

// Allocate extends the file by one zero page.
func (fb *FileBacking) Allocate() (uint32, error) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	var zero [PageSize]byte
	fb.dirty = true
	if _, err := fb.f.WriteAt(zero[:], int64(fb.pages)*PageSize); err != nil {
		return 0, err
	}
	fb.pages++
	return fb.pages - 1, nil
}

// Sync fsyncs the file if it was written since its last successful
// fsync. A failed fsync leaves it dirty, so the next Sync retries.
func (fb *FileBacking) Sync() error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if !fb.dirty {
		return nil
	}
	if err := fb.f.Sync(); err != nil {
		return err
	}
	fb.dirty = false
	return nil
}

// Close closes the file.
func (fb *FileBacking) Close() error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.f.Close()
}
