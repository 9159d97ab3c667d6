// Package wal is the one write-ahead log file under the federation's
// durable state: the coordinator's multitransaction journal and the
// LAM's participant journal (internal/mtlog) are both views over a Log.
// The log knows frames, not records — payloads are opaque — and owns
// everything about the file: framing, valid-prefix scan, torn-tail
// truncation on open, append, flush, rewrite and close.
//
//	+-------+------+----------+----------+-----------------+
//	| magic | type | len (4B) | crc (4B) | payload         |
//	+-------+------+----------+----------+-----------------+
//
// The CRC32 (IEEE) covers type, length and payload. A truncated frame, a
// checksum mismatch or garbage ends the scan at the last valid frame (the
// "valid prefix"): the recovery semantics a crashed append needs.
//
// Durability is one rule, flush-to-LSN (DESIGN.md §10). An append writes
// its bytes under the log mutex and takes its LSN, the count of bytes
// ever appended. A durable append then takes the flush mutex: if the
// durable LSN covers its own it returns, else it fsyncs and advances the
// durable LSN to what had been appended when that fsync began. A lone
// appender pays one fsync and no wait; appenders queued behind an
// in-flight fsync share the next one. No timer, no window, no goroutine.
//
// The log is fail-stop: the first write or fsync error poisons it and
// every later Append and Rewrite returns that error — after a failed
// fsync the kernel may have dropped the dirty pages, so a later one that
// succeeds proves nothing about them.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	magic      byte = 0xD7
	HeaderSize      = 10 // bytes of a frame before its payload
	// MaxPayload caps one frame's payload so a corrupted length field
	// cannot make the scan allocate gigabytes.
	MaxPayload = 1 << 20
)

// ErrCorrupt marks data whose tail failed validation; frames before it are valid.
var ErrCorrupt = errors.New("wal: corrupt frame")

// ErrClosed is returned by Append and Rewrite on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Frame is one log entry: an owner-assigned type byte and a payload.
type Frame struct {
	Type    byte
	Payload []byte
}

// AppendFrame encodes one frame onto buf.
func AppendFrame(buf []byte, typ byte, payload []byte) []byte {
	var hdr [HeaderSize]byte
	hdr[0], hdr[1] = magic, typ
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(payload)))
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[1:6]), crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[6:10], crc)
	return append(append(buf, hdr[:]...), payload...)
}

// Scan returns the frames of data's valid prefix and the offset where it
// ends. Truncation, checksum mismatch or garbage returns the frames
// before it with an error wrapping ErrCorrupt; malformed input never
// panics. Payloads alias data.
func Scan(data []byte) (frames []Frame, validEnd int, err error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if rest[0] != magic {
			return frames, off, fmt.Errorf("%w: bad magic at offset %d", ErrCorrupt, off)
		}
		if len(rest) < HeaderSize {
			return frames, off, fmt.Errorf("%w: truncated header at offset %d", ErrCorrupt, off)
		}
		n := binary.LittleEndian.Uint32(rest[2:6])
		if n > MaxPayload {
			return frames, off, fmt.Errorf("%w: implausible length %d at offset %d", ErrCorrupt, n, off)
		}
		end := HeaderSize + int(n)
		if len(rest) < end {
			return frames, off, fmt.Errorf("%w: truncated payload at offset %d", ErrCorrupt, off)
		}
		payload := rest[HeaderSize:end:end]
		crc := crc32.Update(crc32.ChecksumIEEE(rest[1:6]), crc32.IEEETable, payload)
		if crc != binary.LittleEndian.Uint32(rest[6:10]) {
			return frames, off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		frames = append(frames, Frame{Type: rest[1], Payload: payload})
		off += end
	}
	return frames, off, nil
}

// WriteFileAtomic replaces the file at path with data so that a crash at
// any point leaves either the old or the new contents under that name:
// write a temp file beside it, fsync it, rename it over path, fsync the
// directory — without which a power failure can undo the rename after
// the caller went on to use the new file.
func WriteFileAtomic(path string, data []byte) error {
	_, err := replaceFile(path, data)
	return err
}

// replaceFile is WriteFileAtomic; !renamed means path was left untouched.
func replaceFile(path string, data []byte) (renamed bool, err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false, err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return false, err
	}
	return true, syncDir(filepath.Dir(path))
}

// syncDir makes the directory's entries (a create or a rename) durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Log is an append-only frame log on one file, safe for concurrent use.
type Log struct {
	path string

	// onSync, when non-nil, is told how long each Append-path fsync took
	// and how many durable appends it covered.
	onSync   func(took time.Duration, covered int)
	syncFile func(*os.File) error // (*os.File).Sync; tests hold it open or fail it

	// mu guards the file handle and what is written with it. It is not
	// held across an Append-path fsync: appends proceed during a flush.
	mu       sync.Mutex
	f        *os.File
	appended int64 // LSN: bytes ever appended
	pending  int   // durable appends written since the last flush began
	forced   int64 // durable appends ever
	fsyncs   int64 // Append-path fsyncs ever
	err      error // sticky: the first write/fsync failure, or ErrClosed

	// flushMu serializes fsyncs and guards durable. Taken before mu.
	flushMu sync.Mutex
	durable int64 // every LSN at or below this is on stable storage
}

// Open opens (creating if needed) the log at path and truncates whatever
// follows its valid prefix — a crashed append's torn tail or any other
// corruption — so new frames land where a scan will find them.
func Open(path string, onSync func(took time.Duration, covered int)) (*Log, error) {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err == nil {
		if _, validEnd, serr := Scan(data); serr != nil {
			err = f.Truncate(int64(validEnd))
		}
	}
	if err == nil && os.IsNotExist(statErr) {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{path: path, f: f, onSync: onSync, syncFile: (*os.File).Sync}, nil
}

// poisonLocked records the log's first failure and returns it.
func (l *Log) poisonLocked(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("wal: %s failed and accepts no more writes: %w", l.path, err)
	}
	return l.err
}

// Append writes one frame. With durable set it returns only after an
// fsync that began after the frame — and so every earlier one — was
// written.
func (l *Log) Append(typ byte, payload []byte, durable bool) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wal: payload %d exceeds %d bytes", len(payload), MaxPayload)
	}
	lsn, err := l.write(AppendFrame(nil, typ, payload), durable)
	if err != nil || !durable {
		return err
	}
	return l.flush(lsn)
}

// write appends the encoded frame and returns its LSN.
func (l *Log) write(frame []byte, durable bool) (lsn int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if _, err := l.f.Write(frame); err != nil {
		return 0, l.poisonLocked(err)
	}
	l.appended += int64(len(frame))
	if durable {
		l.pending++
		l.forced++
	}
	return l.appended, nil
}

// flush returns once every byte up to lsn is on stable storage.
func (l *Log) flush(lsn int64) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	if l.durable >= lsn {
		return nil // an fsync that began after our write already finished
	}
	l.mu.Lock()
	if l.err != nil {
		l.mu.Unlock()
		return l.err
	}
	// Whatever is appended by now is in the file before the fsync begins;
	// anything appended later is the next flush's to cover.
	f, target, covered := l.f, l.appended, l.pending
	l.pending = 0
	l.fsyncs++
	l.mu.Unlock()

	start := time.Now()
	if err := l.syncFile(f); err != nil {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.poisonLocked(err)
	}
	l.durable = target
	if l.onSync != nil {
		l.onSync(time.Since(start), covered)
	}
	return nil
}

// Stats reports durable appends made and the Append-path fsyncs issued for them.
func (l *Log) Stats() (durableAppends, fsyncs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forced, l.fsyncs
}

// Frames returns every frame currently in the log file.
func (l *Log) Frames() ([]Frame, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.framesLocked()
}

func (l *Log) framesLocked() ([]Frame, error) {
	data, err := os.ReadFile(l.path)
	frames, _, _ := Scan(data)
	return frames, err
}

// Rewrite replaces the log's contents with the frames filter returns.
// Appends and flushes wait meanwhile, so filter sees every frame; the new
// file is durable under the log's name before Rewrite returns
// (WriteFileAtomic), so a crash leaves the old log or the new, never a
// mix. A failure of filter or before the rename leaves the log as it was
// and usable; one after it (the handle names an unlinked file) poisons it.
func (l *Log) Rewrite(filter func([]Frame) ([]Frame, error)) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	frames, err := l.framesLocked()
	if err != nil {
		return err
	}
	if frames, err = filter(frames); err != nil {
		return err
	}
	var buf []byte
	for _, fr := range frames {
		buf = AppendFrame(buf, fr.Type, fr.Payload)
	}
	if renamed, err := replaceFile(l.path, buf); err != nil {
		if !renamed {
			return err // the live log is untouched and still sound
		}
		return l.poisonLocked(err)
	}
	nf, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return l.poisonLocked(err)
	}
	l.f.Close()
	l.f = nf
	// All that was ever appended is in the new, synced file or dropped.
	l.durable, l.pending = l.appended, 0
	return nil
}

// Close syncs and closes the log file; appenders still waiting for a
// flush are covered by this sync. Closing twice is harmless.
func (l *Log) Close() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.err
	if err == nil {
		if err = l.f.Sync(); err == nil {
			l.durable = l.appended
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if l.err == nil {
		l.err = ErrClosed
	}
	return err
}
