package storage

import (
	"os"
	"path/filepath"
	"testing"
)

func isDirty(fb *FileBacking) bool {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.dirty
}

// TestFileBackingSyncsOnlyWhenWritten pins the rule a checkpoint relies
// on to skip clean files: every write marks the file dirty, only a
// successful fsync clears it, and a file just opened is never assumed
// clean.
func TestFileBackingSyncsOnlyWhenWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.heap")
	fb, err := OpenFileBacking(path)
	if err != nil {
		t.Fatal(err)
	}
	if !isDirty(fb) {
		t.Fatal("a freshly opened file must start dirty")
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	if isDirty(fb) {
		t.Fatal("dirty after a successful Sync")
	}

	pg, err := fb.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if !isDirty(fb) {
		t.Fatal("Allocate did not mark the file dirty")
	}
	if err := fb.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	buf[0] = 0xAB
	if err := fb.WritePage(pg, buf); err != nil {
		t.Fatal(err)
	}
	if !isDirty(fb) {
		t.Fatal("WritePage did not mark the file dirty")
	}

	// The fd is closed underneath: the fsync fails, and the write it
	// should have covered must still be owed by the next Sync.
	if err := fb.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Sync(); err == nil {
		t.Fatal("Sync on a closed fd succeeded")
	}
	if !isDirty(fb) {
		t.Fatal("a failed Sync cleared the dirty flag")
	}

	// A torn tail: the repaired file starts dirty like any reopened one.
	if err := os.WriteFile(path, make([]byte, PageSize+100), 0o644); err != nil {
		t.Fatal(err)
	}
	fb2, repaired, err := RepairFileBacking(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	if !repaired {
		t.Fatal("torn tail not repaired")
	}
	if !isDirty(fb2) {
		t.Fatal("a repaired file must start dirty")
	}
}
