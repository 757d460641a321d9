package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// collect replays the whole log into memory.
func collect(t *testing.T, l *Log, after uint64) [][]byte {
	t.Helper()
	var out [][]byte
	if err := l.Replay(after, func(seq uint64, payload []byte) error {
		out = append(out, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%03d-%s", i, string(bytes.Repeat([]byte{'x'}, i%17))))
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.TruncatedBytes != 0 {
		t.Fatalf("fresh log recovery info = %+v", info)
	}
	want := payloads(25)
	for i, p := range want {
		seq, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Replay from the middle.
	mid := collect(t, l, 10)
	if len(mid) != 15 || !bytes.Equal(mid[0], want[10]) {
		t.Fatalf("replay after 10: %d records, first %q", len(mid), mid[0])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same records, appends continue the sequence.
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != 25 || info.FirstSeq != 1 || info.LastSeq != 25 || info.TruncatedBytes != 0 {
		t.Fatalf("reopen recovery info = %+v", info)
	}
	if seq, err := l2.Append([]byte("after-reopen")); err != nil || seq != 26 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(40)
	for _, p := range want {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("expected rotation to produce ≥ 3 segments, got %d", l.Segments())
	}
	got := collect(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records across segments, want %d", len(got), len(want))
	}

	// Compaction: retire everything ≤ 20, keep the tail replayable.
	before := l.Segments()
	removed, err := l.RemoveObsolete(20)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || l.Segments() != before-removed {
		t.Fatalf("RemoveObsolete removed %d of %d segments", removed, before)
	}
	tail := collect(t, l, 20)
	if len(tail) != 20 || !bytes.Equal(tail[0], want[20]) {
		t.Fatalf("after compaction: %d records, first %q", len(tail), tail[0])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen after compaction: sequence numbers still line up.
	l2, info, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.FirstSeq == 1 || info.LastSeq != 40 {
		t.Fatalf("recovery info after compaction = %+v", info)
	}
	if got := collect(t, l2, 20); len(got) != 20 {
		t.Fatalf("replay after reopen: %d records, want 20", len(got))
	}
}

func TestRemoveObsoleteNeverRemovesActive(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if removed, err := l.RemoveObsolete(999); err != nil || removed != 0 {
		t.Fatalf("RemoveObsolete touched the active segment: removed=%d err=%v", removed, err)
	}
}

// TestTornTailEveryOffset is the kill-at-random-offset crash test,
// exhaustively: write N records, then for EVERY byte offset of the
// log, truncate a copy at that offset, recover, and verify the
// survivors are exactly the longest clean prefix that fits.
func TestTornTailEveryOffset(t *testing.T) {
	master := t.TempDir()
	l, _, err := Open(master, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	want := payloads(n)
	var ends []int64 // ends[i] = file size after record i
	for _, p := range want {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.segments[0].size)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segName := filepath.Base(l.segments[0].path)
	data, err := os.ReadFile(filepath.Join(master, segName))
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(0); cut <= int64(len(data)); cut++ {
		// Survivors: all records fully contained in [0, cut).
		wantRecords := 0
		for _, e := range ends {
			if e <= cut {
				wantRecords++
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, info, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		if info.Records != wantRecords {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, info.Records, wantRecords)
		}
		got := collect(t, l2, 0)
		for i := 0; i < wantRecords; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut=%d: record %d = %q, want %q", cut, i, got[i], want[i])
			}
		}
		// The log must stay appendable after recovery, continuing the
		// clean prefix's sequence.
		if seq, err := l2.Append([]byte("resume")); err != nil || seq != uint64(wantRecords+1) {
			t.Fatalf("cut=%d: append after recovery: seq=%d err=%v", cut, seq, err)
		}
		l2.Close()
	}
}

// TestCorruptMiddleDropsSuffix flips one byte in the middle of a
// record and verifies recovery keeps only the records before it —
// including dropping whole later segments.
func TestCorruptMiddleDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(30)
	for _, p := range want {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("want ≥ 3 segments, got %d", l.Segments())
	}
	secondSeg := l.segments[1]
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte in the middle of the second segment.
	data, err := os.ReadFile(secondSeg.path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(secondSeg.path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, info, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.DroppedSegments == 0 {
		t.Fatalf("expected later segments to be dropped, info = %+v", info)
	}
	got := collect(t, l2, 0)
	if len(got) >= 30 || len(got) == 0 {
		t.Fatalf("corrupt middle: %d records survive", len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if info.LastSeq != uint64(len(got)) {
		t.Fatalf("LastSeq = %d, %d records", info.LastSeq, len(got))
	}
}

func TestOversizedLengthTreatedAsTorn(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	path := l.segments[0].path
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a frame header claiming a gigantic record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != 1 || info.TruncatedBytes == 0 {
		t.Fatalf("recovery info = %+v", info)
	}
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("Append accepted a record beyond MaxRecordBytes")
	}
}

// TestTornHeaderClaimNotAllocated opens a segment that is nothing but
// a frame header claiming a MaxRecordBytes payload. The torn tail is
// cut as always, but without allocating the length the header claims:
// a frame that would end past the end of the file is torn before its
// body is read.
func TestTornHeaderClaimNotAllocated(t *testing.T) {
	dir := t.TempDir()
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxRecordBytes+seqSize)
	if err := os.WriteFile(filepath.Join(dir, "00000000000000000001"+segmentSuffix), hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, info, err := Open(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if info.Records != 0 || info.TruncatedBytes != headerSize {
		t.Fatalf("recovery info = %+v, want 0 records and %d truncated bytes", info, headerSize)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Open allocated %d bytes to cut a %d-byte torn header", alloc, headerSize)
	}
}
