package wal

import (
	"bytes"
	"testing"
)

// FuzzScan throws arbitrary byte strings at the frame scan: whatever the
// input — truncated tails, bit-flipped checksums, interleaved garbage —
// it must return a consistent valid prefix, never panic, and never
// accept a frame whose checksum does not verify.
func FuzzScan(f *testing.F) {
	seed := encodeFrames([]Frame{
		{Type: 1, Payload: []byte(`{"t":1,"mt":1,"kind":"sync","tasks":[{"name":"T1","entry":"united","db":"united","site":"127.0.0.1:9001","vital":true},{"name":"C1","entry":"avis","comp":true,"for":"T1","sql":"DELETE FROM t"}]}`)},
		{Type: 2, Payload: []byte(`{"t":2,"mt":1,"task":"T1","addr":"127.0.0.1:9001","sid":42}`)},
		{Type: 3, Payload: []byte(`{"t":3,"mt":1,"commit":true,"decided":["T1"]}`)},
		{Type: 4, Payload: []byte(`{"t":4,"mt":1,"task":"T1","status":3}`)},
		{Type: 5, Payload: []byte(`{"t":5,"mt":1,"state":"success"}`)},
	})
	f.Add(seed)
	f.Add(seed[:len(seed)-3])              // truncated tail
	f.Add(append([]byte("junk"), seed...)) // garbage prefix
	flipped := append([]byte{}, seed...)
	flipped[len(flipped)/2] ^= 0x40 // bit flip mid-stream
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{magic})

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, end, err := Scan(data)
		if end < 0 || end > len(data) {
			t.Fatalf("validEnd %d out of range [0,%d]", end, len(data))
		}
		if (err == nil) != (end == len(data)) {
			t.Fatalf("err %v but validEnd %d of %d", err, end, len(data))
		}
		// The valid prefix is exactly the frames' encoding: recovery
		// truncates to validEnd and must neither lose nor invent frames,
		// and what the scan reads a rewrite can write back.
		if re := encodeFrames(frames); !bytes.Equal(re, data[:end]) {
			t.Fatalf("re-encoding the %d scanned frames gives %d bytes, not the %d-byte valid prefix", len(frames), len(re), end)
		}
	})
}
