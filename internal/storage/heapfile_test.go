package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestHeapFileCRUDAndScan(t *testing.T) {
	pool := NewPool(16)
	h := NewHeapFile(pool, NewMemBacking())
	want := make(map[RID][]byte)
	for i := 0; i < 2000; i++ {
		data := []byte(fmt.Sprintf("row-%04d-%s", i, bytes.Repeat([]byte{'x'}, i%200)))
		rid, err := h.Insert(data)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		want[rid] = data
	}
	if h.NumPages() < 2 {
		t.Fatalf("2000 rows fit in %d page(s); expected a multi-page heap", h.NumPages())
	}
	for rid, data := range want {
		got, err := readTuple(h, rid)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %s: %v", rid, err)
		}
	}
	// Scan sees exactly the live set.
	seen := 0
	err := h.Scan(func(rid RID, data []byte) bool {
		w, ok := want[rid]
		if !ok || !bytes.Equal(data, w) {
			t.Fatalf("scan surfaced unexpected tuple at %s", rid)
		}
		seen++
		return true
	})
	if err != nil || seen != len(want) {
		t.Fatalf("scan: err=%v seen=%d want=%d", err, seen, len(want))
	}
	// Delete half, update a quarter (growing them to force relocations).
	i := 0
	for rid := range want {
		switch i % 4 {
		case 0, 1:
			if err := h.Delete(rid); err != nil {
				t.Fatalf("delete %s: %v", rid, err)
			}
			delete(want, rid)
		case 2:
			grown := append(bytes.Repeat([]byte{'G'}, 700), want[rid]...)
			nrid, err := h.Update(rid, grown)
			if err != nil {
				t.Fatalf("update %s: %v", rid, err)
			}
			delete(want, rid)
			want[nrid] = grown
		}
		i++
	}
	for rid, data := range want {
		got, err := readTuple(h, rid)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("post-churn read %s: %v", rid, err)
		}
	}
	seen = 0
	h.Scan(func(rid RID, data []byte) bool { seen++; return true })
	if seen != len(want) {
		t.Fatalf("post-churn scan: seen=%d want=%d", seen, len(want))
	}
}

// TestHeapFileFreeMapTracksAppends: an append-only load keeps the
// free-space map by arithmetic, never walking the slot directory; the
// figure must be what a walk of the page would give, through page
// changes, and never more than that once deletes put dead slots back
// into play (a nominated page that turns out full is marked down to its
// contiguous space).
func TestHeapFileFreeMapTracksAppends(t *testing.T) {
	pool := NewPool(8)
	h := NewHeapFile(pool, NewMemBacking())
	check := func(when string, exactly bool) {
		t.Helper()
		for pg := uint32(0); pg < h.pages; pg++ {
			f, err := pool.Fetch(h.id, pg)
			if err != nil {
				t.Fatal(err)
			}
			exact := page{f.Data()}.contiguousAfterCompact(true)
			pool.Unpin(f, false)
			if exact < 0 {
				exact = 0
			}
			if got := int(h.free[pg]); got > exact || exactly && got != exact {
				t.Fatalf("%s: page %d: map says %d free, the page has %d", when, pg, got, exact)
			}
		}
	}
	var rids []RID
	for i := 0; i < 1500; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{'r'}, 10+i%90))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.NumPages() < 5 {
		t.Fatalf("%d pages; expected the load to span several", h.NumPages())
	}
	check("after the load", true)
	for i := 0; i < len(rids); i += 3 {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		if _, err := h.Insert(bytes.Repeat([]byte{'n'}, 20+i%50)); err != nil {
			t.Fatal(err)
		}
	}
	check("after deletes and inserts reusing their slots", false)
}

func TestHeapFileInsertReusesFreedSpace(t *testing.T) {
	pool := NewPool(32)
	h := NewHeapFile(pool, NewMemBacking())
	var rids []RID
	data := bytes.Repeat([]byte{'d'}, 200)
	for i := 0; i < 1000; i++ {
		rid, err := h.Insert(data)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	before := h.NumPages()
	// Drain the first half of the heap, then refill: the open list should
	// route new tuples into the drained pages instead of growing the file.
	for _, rid := range rids[:500] {
		if err := h.Delete(rid); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ {
		if _, err := h.Insert(data); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() > before {
		t.Fatalf("heap grew from %d to %d pages despite 500 freed tuples", before, h.NumPages())
	}
}

func TestHeapFilePersistReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.heap")
	fb, err := OpenFileBacking(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(16)
	h := NewHeapFile(pool, fb)
	want := make(map[RID][]byte)
	for i := 0; i < 500; i++ {
		data := []byte(fmt.Sprintf("persistent-%d", i))
		rid, err := h.Insert(data)
		if err != nil {
			t.Fatal(err)
		}
		want[rid] = data
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	fb2, err := OpenFileBacking(path)
	if err != nil {
		t.Fatal(err)
	}
	h2, repaired, err := OpenHeapFile(NewPool(16), fb2, OpenOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if repaired != 0 {
		t.Fatalf("clean file reported %d repaired pages", repaired)
	}
	for rid, data := range want {
		got, err := readTuple(h2, rid)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("reopened read %s: %v", rid, err)
		}
	}
	// Inserts after reopen work (the free-space map was rebuilt).
	if _, err := h2.Insert([]byte("post-reopen")); err != nil {
		t.Fatalf("insert after reopen: %v", err)
	}
	h2.Close()
	fb2.Close()
}

func TestHeapFileTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.heap")
	fb, err := OpenFileBacking(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(16)
	h := NewHeapFile(pool, fb)
	var rid0 RID
	for i := 0; i < 300; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{'t'}, 100))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			rid0 = rid
		}
	}
	h.Close()
	fb.Close()

	// Tear the tail: chop half a page off, as a crash mid-append would.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-PageSize/2); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenFileBacking(path); !errors.Is(err, ErrTruncatedFile) {
		t.Fatalf("open of truncated file: err = %v, want ErrTruncatedFile", err)
	}
	fb2, repaired, err := RepairFileBacking(path)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if !repaired {
		t.Fatalf("repair did not report dropping the torn tail")
	}
	h2, _, err := OpenHeapFile(NewPool(16), fb2, OpenOptions{Repair: true})
	if err != nil {
		t.Fatalf("open repaired: %v", err)
	}
	// Data on the surviving pages is intact.
	if got, err := readTuple(h2, rid0); err != nil || len(got) != 100 {
		t.Fatalf("surviving tuple: %v", err)
	}
	h2.Close()
	fb2.Close()
}

func TestHeapFileTornPageRepair(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.heap")
	fb, err := OpenFileBacking(path)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHeapFile(NewPool(16), fb)
	for i := 0; i < 300; i++ {
		if _, err := h.Insert(bytes.Repeat([]byte{'p'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	npages := h.NumPages()
	if npages < 3 {
		t.Fatalf("want >=3 pages, got %d", npages)
	}
	h.Close()
	fb.Close()

	// Corrupt the middle page in place: a torn in-place overwrite.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tornPage := int64(npages / 2)
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xDE}, 64), tornPage*PageSize+64); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Without Repair the open fails loudly.
	fb2, err := OpenFileBacking(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenHeapFile(NewPool(16), fb2, OpenOptions{}); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("open with torn page: err = %v, want ErrBadChecksum", err)
	}
	fb2.Close()

	// With Repair the torn page is reinitialized and the rest survives.
	fb3, err := OpenFileBacking(path)
	if err != nil {
		t.Fatal(err)
	}
	h3, repaired, err := OpenHeapFile(NewPool(16), fb3, OpenOptions{Repair: true})
	if err != nil {
		t.Fatalf("repair open: %v", err)
	}
	if repaired != 1 {
		t.Fatalf("repaired = %d, want 1", repaired)
	}
	live := 0
	h3.Scan(func(rid RID, data []byte) bool {
		if rid.Page == uint32(tornPage) {
			t.Fatalf("repaired page still surfaced tuples")
		}
		live++
		return true
	})
	if live == 0 || live >= 300 {
		t.Fatalf("live tuples after repair = %d; want some lost, most kept", live)
	}
	h3.Close()
	fb3.Close()
}

// readTuple copies one tuple out through a single-RID ReadPageCounted.
func readTuple(h *HeapFile, rid RID) ([]byte, error) {
	var out []byte
	err := h.ReadPageCounted([]RID{rid}, nil, func(data []byte) error {
		out = append([]byte(nil), data...)
		return nil
	})
	return out, err
}

// TestReadPageCountedOnePinPerPage reads every slot of a page with one
// fetch, and leaves no pin behind — on success, on a callback error, and
// on a RID of another page.
func TestReadPageCountedOnePinPerPage(t *testing.T) {
	pool := NewPool(8)
	h := NewHeapFile(pool, NewMemBacking())
	var rids []RID
	for i := 0; len(rids) == 0 || rids[len(rids)-1].Page == 0; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("tuple-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	first := rids[:len(rids)-1] // every tuple of page 0
	var pc PageCounters
	var got []string
	noPins := func(after string) {
		t.Helper()
		if p := pool.Stats().Pinned; p != 0 {
			t.Fatalf("%d frames still pinned after %s", p, after)
		}
	}
	err := h.ReadPageCounted(first, &pc, func(data []byte) error {
		got = append(got, string(data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	noPins("a read")
	if len(got) != len(first) {
		t.Fatalf("read %d tuples, want %d", len(got), len(first))
	}
	for i, g := range got {
		if want := fmt.Sprintf("tuple-%03d", i); g != want {
			t.Fatalf("tuple %d = %q, want %q (in the order of rids)", i, g, want)
		}
	}
	if n := pc.Hits() + pc.Misses(); n != 1 {
		t.Fatalf("%d fetches for %d tuples of one page, want 1", n, len(first))
	}
	stop := errors.New("stop")
	if err := h.ReadPageCounted(first, nil, func([]byte) error { return stop }); err != stop {
		t.Fatalf("callback error: got %v", err)
	}
	noPins("a callback error")
	if err := h.ReadPageCounted(rids, nil, func([]byte) error { return nil }); err == nil {
		t.Fatal("a batch spanning two pages was accepted")
	}
	noPins("a batch spanning two pages")
}
