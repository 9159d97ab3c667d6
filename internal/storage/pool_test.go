package storage

import (
	"errors"
	"testing"
)

// newPoolFile returns a small pool with one registered MemBacking that
// already holds npages sealed empty pages.
func newPoolFile(t *testing.T, frames int, npages int) (*Pool, FileID, *MemBacking) {
	t.Helper()
	pool := NewPool(frames)
	b := NewMemBacking()
	id := pool.Register(b)
	var buf [PageSize]byte
	for i := 0; i < npages; i++ {
		if _, err := b.Allocate(); err != nil {
			t.Fatal(err)
		}
		initPage(buf[:])
		sealPage(buf[:])
		if err := b.WritePage(uint32(i), buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	return pool, id, b
}

func TestPoolHitMiss(t *testing.T) {
	pool, id, _ := newPoolFile(t, 8, 4)
	f, err := pool.Fetch(id, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f, false)
	f, err = pool.Fetch(id, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f, false)
	s := pool.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", s.Hits, s.Misses)
	}
}

func TestPoolEvictionWritesBackDirty(t *testing.T) {
	// Pool smaller than the file: touching every page forces eviction.
	pool, id, backing := newPoolFile(t, 8, 32)
	for pg := uint32(0); pg < 32; pg++ {
		f, err := pool.Fetch(id, pg, nil)
		if err != nil {
			t.Fatalf("fetch %d: %v", pg, err)
		}
		p := page{f.Data()}
		if _, err := p.insert([]byte{byte(pg), byte(pg), byte(pg)}); err != nil {
			t.Fatal(err)
		}
		pool.Unpin(f, true)
	}
	s := pool.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions with 8 frames over 32 pages")
	}
	if s.Flushes == 0 {
		t.Fatalf("dirty victims were not flushed")
	}
	// Every page's mutation survived its round trip through the backing.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var buf [PageSize]byte
	for pg := uint32(0); pg < 32; pg++ {
		if err := backing.ReadPage(pg, buf[:]); err != nil {
			t.Fatal(err)
		}
		if err := verifyPage(buf[:]); err != nil {
			t.Fatalf("page %d failed verify after write-back: %v", pg, err)
		}
		data, err := page{buf[:]}.read(0)
		if err != nil || data[0] != byte(pg) {
			t.Fatalf("page %d lost its tuple: %v %v", pg, data, err)
		}
	}
}

func TestPoolPinnedPagesNeverEvicted(t *testing.T) {
	pool, id, _ := newPoolFile(t, 8, 64)
	// Pin page 0, then stream the rest through the remaining frames.
	pinned, err := pool.Fetch(id, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := page{pinned.Data()}
	if _, err := p.insert([]byte("pinned sentinel")); err != nil {
		t.Fatal(err)
	}
	for pg := uint32(1); pg < 64; pg++ {
		f, err := pool.Fetch(id, pg, nil)
		if err != nil {
			t.Fatalf("fetch %d: %v", pg, err)
		}
		pool.Unpin(f, false)
	}
	// The pinned frame must still hold page 0's bytes.
	data, err := page{pinned.Data()}.read(0)
	if err != nil || string(data) != "pinned sentinel" {
		t.Fatalf("pinned frame was recycled: %v %q", err, data)
	}
	pool.Unpin(pinned, true)
}

func TestPoolAllPinnedErrPoolFull(t *testing.T) {
	pool, id, _ := newPoolFile(t, 8, 16)
	var held []*Frame
	for pg := uint32(0); pg < 8; pg++ {
		f, err := pool.Fetch(id, pg, nil)
		if err != nil {
			t.Fatalf("fetch %d: %v", pg, err)
		}
		held = append(held, f)
	}
	if _, err := pool.Fetch(id, 8, nil); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("fetch with all frames pinned: err = %v, want ErrPoolFull", err)
	}
	if _, _, err := pool.Alloc(id); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("alloc with all frames pinned: err = %v, want ErrPoolFull", err)
	}
	// Releasing one pin unblocks the fetch.
	pool.Unpin(held[0], false)
	f, err := pool.Fetch(id, 8, nil)
	if err != nil {
		t.Fatalf("fetch after unpin: %v", err)
	}
	pool.Unpin(f, false)
	for _, f := range held[1:] {
		pool.Unpin(f, false)
	}
}

func TestPoolCorruptPageRejectedOnFetch(t *testing.T) {
	pool, id, backing := newPoolFile(t, 8, 2)
	var buf [PageSize]byte
	if err := backing.ReadPage(1, buf[:]); err != nil {
		t.Fatal(err)
	}
	buf[100] ^= 0xFF // payload damage without resealing
	if err := backing.WritePage(1, buf[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(id, 1, nil); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("fetch of torn page: err = %v, want ErrBadChecksum", err)
	}
	// The failed fill released its frame; the pool still works.
	f, err := pool.Fetch(id, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(f, false)
}
