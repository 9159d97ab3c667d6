package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// mixedFrames is a log of frames whose sizes differ — an empty payload,
// a one-byte one, a few hundred bytes — so no prefix length lands on a
// boundary by accident.
func mixedFrames() []Frame {
	return []Frame{
		{Type: 1, Payload: []byte(`{"t":1}`)},
		{Type: 2, Payload: nil},
		{Type: 3, Payload: bytes.Repeat([]byte("redo "), 60)},
		{Type: 2, Payload: []byte{0xD7}}, // a payload that looks like a magic byte
		{Type: 9, Payload: []byte("tail")},
	}
}

func encodeFrames(frames []Frame) []byte {
	var buf []byte
	for _, fr := range frames {
		buf = AppendFrame(buf, fr.Type, fr.Payload)
	}
	return buf
}

func sameFrames(t *testing.T, ctx string, got, want []Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("%s: frame %d = {%d %q}, want {%d %q}", ctx, i,
				got[i].Type, got[i].Payload, want[i].Type, want[i].Payload)
		}
	}
}

// TestTornTailEveryPrefix cuts the file at every byte length — every
// place a crashed append can leave it — and checks Open recovers exactly
// the frames that end inside the prefix, truncates the file to that
// boundary, and that an append made afterwards survives a reopen right
// behind them.
func TestTornTailEveryPrefix(t *testing.T) {
	frames := mixedFrames()
	full := encodeFrames(frames)
	path := filepath.Join(t.TempDir(), "log")
	extra := Frame{Type: 7, Payload: []byte("appended after recovery")}

	for cut := 0; cut <= len(full); cut++ {
		whole, boundary := 0, 0
		for _, fr := range frames {
			if boundary+HeaderSize+len(fr.Payload) > cut {
				break
			}
			boundary += HeaderSize + len(fr.Payload)
			whole++
		}
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, nil)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		got, err := l.Frames()
		if err != nil {
			t.Fatalf("cut %d: frames: %v", cut, err)
		}
		sameFrames(t, "after open", got, frames[:whole])
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(boundary) {
			t.Fatalf("cut %d: file size %d after open, want the frame boundary %d", cut, fi.Size(), boundary)
		}
		if err := l.Append(extra.Type, extra.Payload, true); err != nil {
			t.Fatalf("cut %d: append: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, end, err := Scan(data)
		if err != nil || end != len(data) {
			t.Fatalf("cut %d: reopened log not clean: end %d of %d, err %v", cut, end, len(data), err)
		}
		sameFrames(t, "after append+reopen", got, append(frames[:whole:whole], extra))
	}
}

// TestBitFlipStopsAtValidPrefix flips one bit at every byte position:
// the scan must stop at the boundary before the damaged frame and never
// accept it.
func TestBitFlipStopsAtValidPrefix(t *testing.T) {
	frames := mixedFrames()
	full := encodeFrames(frames)
	for pos := 0; pos < len(full); pos++ {
		mut := append([]byte{}, full...)
		mut[pos] ^= 0x10
		whole, boundary := 0, 0
		for _, fr := range frames {
			if boundary+HeaderSize+len(fr.Payload) > pos {
				break
			}
			boundary += HeaderSize + len(fr.Payload)
			whole++
		}
		got, end, err := Scan(mut)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("pos %d: err = %v, want ErrCorrupt", pos, err)
		}
		if end != boundary {
			t.Fatalf("pos %d: validEnd %d, want %d", pos, end, boundary)
		}
		sameFrames(t, "before the flip", got, frames[:whole])
	}
}

// heldSync replaces a log's fsync with one that records the LSN appended
// when each fsync began, parks the first one until released, and can be
// told to fail.
type heldSync struct {
	l       *Log
	entered chan struct{} // closed when the first fsync has begun
	release chan struct{}

	mu     sync.Mutex
	begun  []int64 // appended LSN at the start of each fsync
	doneTo int64   // highest begun LSN among fsyncs that returned nil
	fail   error
}

func holdSync(l *Log) *heldSync {
	h := &heldSync{l: l, entered: make(chan struct{}), release: make(chan struct{})}
	l.syncFile = h.sync
	return h
}

func (h *heldSync) sync(f *os.File) error {
	h.l.mu.Lock()
	at := h.l.appended
	h.l.mu.Unlock()
	h.mu.Lock()
	h.begun = append(h.begun, at)
	first := len(h.begun) == 1
	fail := h.fail
	h.mu.Unlock()
	if first {
		close(h.entered)
		<-h.release
	}
	if fail != nil {
		return fail
	}
	err := f.Sync()
	if err == nil {
		h.mu.Lock()
		if at > h.doneTo {
			h.doneTo = at
		}
		h.mu.Unlock()
	}
	return err
}

// awaitQueued returns once n durable appends have written their bytes
// since the held fsync began (which took the earlier ones), so all they
// can be doing is waiting for the flush mutex.
func (h *heldSync) awaitQueued(n int) {
	for {
		h.l.mu.Lock()
		pending := h.l.pending
		h.l.mu.Unlock()
		if pending == n {
			return
		}
		runtime.Gosched()
	}
}

// TestConcurrentAppendsShareFsyncs is the flush-to-LSN rule made
// deterministic: with the first fsync held open, N more durable appends
// write their bytes and queue. Once released, every one of them must
// return nil only after an fsync that began after its bytes were written
// — not the held one, which began before — and one such fsync serves
// them all: two fsyncs for N+1 durable appends.
func TestConcurrentAppendsShareFsyncs(t *testing.T) {
	var syncs []int
	l, err := Open(filepath.Join(t.TempDir(), "log"), func(_ time.Duration, covered int) {
		syncs = append(syncs, covered) // called under flushMu: serialized
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	h := holdSync(l)

	first := make(chan error, 1)
	go func() { first <- l.Append(1, []byte("first"), true) }()
	<-h.entered

	const queued = 16
	var wg sync.WaitGroup
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := l.write(AppendFrame(nil, 2, bytes.Repeat([]byte{'x'}, i)), true)
			if err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			if err := l.flush(lsn); err != nil {
				t.Errorf("flush %d: %v", i, err)
				return
			}
			h.mu.Lock()
			doneTo := h.doneTo
			h.mu.Unlock()
			if doneTo < lsn {
				t.Errorf("append %d (lsn %d) acknowledged, but no finished fsync began after its bytes were written (covered to %d)", i, lsn, doneTo)
			}
		}(i)
	}
	h.awaitQueued(queued)
	close(h.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	forced, fsyncs := l.Stats()
	if forced != queued+1 || fsyncs != 2 {
		t.Fatalf("stats = %d durable appends, %d fsyncs; want %d and 2", forced, fsyncs, queued+1)
	}
	if len(syncs) != 2 || syncs[0] != 1 || syncs[1] != queued {
		t.Fatalf("fsyncs covered %v durable appends, want [1 %d]", syncs, queued)
	}
	frames, err := l.Frames()
	if err != nil || len(frames) != queued+1 {
		t.Fatalf("frames = %d (err %v), want %d", len(frames), err, queued+1)
	}
}

// TestFsyncFailurePoisonsLog: after one failed fsync the kernel may have
// dropped the pages, so the log must stay failed — for the append that
// saw the error, for appends that were queued behind it, and for every
// later Append and Rewrite, without another fsync being attempted.
func TestFsyncFailurePoisonsLog(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	h := holdSync(l)
	boom := errors.New("injected EIO")
	h.fail = boom

	first := make(chan error, 1)
	go func() { first <- l.Append(1, []byte("a"), true) }()
	<-h.entered
	queuedErr := make(chan error, 1)
	go func() { queuedErr <- l.Append(1, []byte("b"), true) }()
	h.awaitQueued(1)
	close(h.release)
	if err := <-first; !errors.Is(err, boom) {
		t.Fatalf("append under the failed fsync: %v, want the injected error", err)
	}
	if err := <-queuedErr; !errors.Is(err, boom) {
		t.Fatalf("append queued behind the failed fsync: %v, want the injected error", err)
	}

	l.flushMu.Lock()
	durable := l.durable
	l.flushMu.Unlock()
	if durable != 0 {
		t.Fatalf("durable LSN advanced to %d by an fsync that failed", durable)
	}

	h.mu.Lock()
	h.fail = nil // the disk "recovers": a retry would now succeed
	h.mu.Unlock()
	if err := l.Append(1, []byte("c"), true); !errors.Is(err, boom) {
		t.Fatalf("durable append after the failure: %v, want the injected error", err)
	}
	if err := l.Append(1, []byte("d"), false); !errors.Is(err, boom) {
		t.Fatalf("plain append after the failure: %v, want the injected error", err)
	}
	keepAll := func(fr []Frame) ([]Frame, error) { return fr, nil }
	if err := l.Rewrite(keepAll); !errors.Is(err, boom) {
		t.Fatalf("rewrite after the failure: %v, want the injected error", err)
	}
	h.mu.Lock()
	attempts := len(h.begun)
	h.mu.Unlock()
	if attempts != 1 {
		t.Fatalf("%d fsyncs attempted, want 1: a poisoned log must not sync again", attempts)
	}
	if err := l.Close(); !errors.Is(err, boom) {
		t.Fatalf("close: %v, want the injected error", err)
	}
}

// TestRewriteKeepsAppending: the handle swap leaves a log that appends,
// flushes and reopens, and no temp file behind.
func TestRewriteKeepsAppending(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	l, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := mixedFrames()
	for _, fr := range frames {
		if err := l.Append(fr.Type, fr.Payload, false); err != nil {
			t.Fatal(err)
		}
	}
	dropType2 := func(in []Frame) ([]Frame, error) {
		var out []Frame
		for _, fr := range in {
			if fr.Type != 2 {
				out = append(out, fr)
			}
		}
		return out, nil
	}
	if err := l.Rewrite(dropType2); err != nil {
		t.Fatal(err)
	}
	want := []Frame{frames[0], frames[2], frames[4]}
	got, err := l.Frames()
	if err != nil {
		t.Fatal(err)
	}
	sameFrames(t, "after rewrite", got, want)

	refuse := errors.New("filter refused")
	if err := l.Rewrite(func([]Frame) ([]Frame, error) { return nil, refuse }); !errors.Is(err, refuse) {
		t.Fatalf("rewrite with failing filter: %v", err)
	}
	// A rewrite that fails before its rename (here the temp file cannot
	// be created: a directory sits on its name) has not touched the live
	// log, so it must not poison it.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Rewrite(dropType2); err == nil {
		t.Fatal("rewrite succeeded with its temp file's name taken")
	}
	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(5, []byte("after"), true); err != nil {
		t.Fatalf("append after an abandoned rewrite: %v", err)
	}
	if _, fsyncs := l.Stats(); fsyncs != 1 {
		t.Fatalf("fsyncs = %d, want 1: the rewrite must not mark later appends durable", fsyncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(5, nil, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (err %v), want only the log", len(entries), err)
	}
	l2, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, err = l2.Frames()
	if err != nil {
		t.Fatal(err)
	}
	sameFrames(t, "after reopen", got, append(want, Frame{Type: 5, Payload: []byte("after")}))
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.json")
	for _, want := range []string{"first", "second, longer", ""} {
		if err := WriteFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read back %q (err %v), want %q", got, err, want)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the file", len(entries))
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "f"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestAppendRejectsOversizedPayload(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(1, make([]byte, MaxPayload+1), false); err == nil {
		t.Fatal("oversized payload accepted: the scan would reject it on reopen")
	}
	if err := l.Append(1, make([]byte, MaxPayload), false); err != nil {
		t.Fatalf("payload of exactly MaxPayload: %v", err)
	}
}
