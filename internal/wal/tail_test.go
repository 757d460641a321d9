package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// drainTail reads frames from a fresh Tail until it is caught up,
// returning the decoded (seq, payload) pairs via a FrameReader — which
// also exercises the wire-parse path on the exact bytes Tail emits.
func drainTail(t *testing.T, l *Log, after uint64) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	tail, err := l.TailAfter(after)
	if err != nil {
		t.Fatalf("TailAfter(%d): %v", after, err)
	}
	defer tail.Close()
	for {
		frames, n, first, err := tail.Next(1 << 20)
		if err != nil {
			t.Fatalf("tail next: %v", err)
		}
		if n == 0 {
			return seqs, payloads
		}
		if wantFirst := uint64(len(seqs)) + after + 1; first != wantFirst {
			t.Fatalf("batch first seq = %d, want %d", first, wantFirst)
		}
		fr := NewFrameReader(bytes.NewReader(frames))
		got := 0
		for {
			seq, payload, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("frame reader: %v", err)
			}
			seqs = append(seqs, seq)
			payloads = append(payloads, append([]byte(nil), payload...))
			got++
		}
		if got != n {
			t.Fatalf("batch advertised %d frames, parsed %d", n, got)
		}
	}
}

func TestTailDeliversExistingAndNewRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256}) // force rotations
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := payloads(40)
	for _, p := range want[:25] {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	seqs, got := drainTail(t, l, 0)
	if len(got) != 25 {
		t.Fatalf("tail delivered %d records, want 25", len(got))
	}
	for i := range got {
		if seqs[i] != uint64(i+1) || !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: seq %d payload %q", i, seqs[i], got[i])
		}
	}

	// A tail that starts mid-log skips the prefix.
	seqs, got = drainTail(t, l, 20)
	if len(got) != 5 || seqs[0] != 21 || !bytes.Equal(got[0], want[20]) {
		t.Fatalf("tail after 20: %d records, first seq %d", len(got), seqs[0])
	}

	// New appends show up on an already-caught-up tail.
	tail, err := l.TailAfter(25)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, n, _, err := tail.Next(0); err != nil || n != 0 {
		t.Fatalf("caught-up tail returned n=%d err=%v", n, err)
	}
	for _, p := range want[25:] {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	frames, n, first, err := tail.Next(1 << 20)
	if err != nil || n != 15 || first != 26 {
		t.Fatalf("tail after new appends: n=%d first=%d err=%v", n, first, err)
	}
	fr := NewFrameReader(bytes.NewReader(frames))
	if seq, payload, err := fr.Next(); err != nil || seq != 26 || !bytes.Equal(payload, want[25]) {
		t.Fatalf("first new frame: seq %d err %v", seq, err)
	}
}

// TestTailConcurrentWithAppendsAcrossRotations is the tailing-reader
// race the replication stream depends on: a reader drains the log while
// a writer appends through many segment rotations. Run with -race.
func TestTailConcurrentWithAppendsAcrossRotations(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const total = 500
	want := payloads(total)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, p := range want {
			if _, err := l.Append(p); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			if i%97 == 0 {
				if err := l.Rotate(); err != nil {
					t.Errorf("rotate at %d: %v", i, err)
					return
				}
			}
		}
	}()

	tail, err := l.TailAfter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	var got [][]byte
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < total {
		if time.Now().After(deadline) {
			t.Fatalf("tail stalled at %d/%d records", len(got), total)
		}
		frames, n, _, err := tail.Next(4 << 10)
		if err != nil {
			t.Fatalf("tail next at %d: %v", len(got), err)
		}
		if n == 0 {
			select {
			case <-l.AppendNotify():
			case <-time.After(50 * time.Millisecond):
			}
			continue
		}
		fr := NewFrameReader(bytes.NewReader(frames))
		for {
			_, payload, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("frame reader at %d: %v", len(got), err)
			}
			got = append(got, append([]byte(nil), payload...))
		}
	}
	wg.Wait()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestReplayConcurrentWithAppendsAcrossRotate: Replay (the boot-time
// reader) must deliver a clean contiguous prefix even while Append and
// Rotate run concurrently. Run with -race.
func TestReplayConcurrentWithAppendsAcrossRotate(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const total = 300
	want := payloads(total)
	for _, p := range want[:50] {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i, p := range want[50:] {
			if _, err := l.Append(p); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			if i%41 == 0 {
				if err := l.Rotate(); err != nil {
					t.Errorf("rotate: %v", err)
					return
				}
			}
		}
	}()

	close(start)
	for round := 0; round < 20; round++ {
		var prev uint64
		count := 0
		err := l.Replay(0, func(seq uint64, payload []byte) error {
			if seq != prev+1 {
				return fmt.Errorf("discontinuous replay: %d after %d", seq, prev)
			}
			idx := int(seq - 1)
			if idx < total && !bytes.Equal(payload, want[idx]) {
				return fmt.Errorf("record %d mismatch", seq)
			}
			prev = seq
			count++
			return nil
		})
		if err != nil {
			t.Fatalf("replay round %d: %v", round, err)
		}
		if count < 50 {
			t.Fatalf("replay round %d saw %d records, want ≥ 50", round, count)
		}
	}
	wg.Wait()
}

func TestTailCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range payloads(60) {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RemoveObsolete(40); err != nil {
		t.Fatal(err)
	}

	// A tail asking for compacted records is refused up front...
	if _, err := l.TailAfter(10); !errors.Is(err, ErrCompacted) {
		t.Fatalf("TailAfter(10) after compaction = %v, want ErrCompacted", err)
	}
	// ...and an open tail that loses its segment detects it on read.
	tail, err := l.TailAfter(l.OldestSeq() - 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if _, n, _, err := tail.Next(1 << 10); err != nil || n == 0 {
		t.Fatalf("tail next before compaction: n=%d err=%v", n, err)
	}
	slow, err := l.TailAfter(l.OldestSeq() - 1)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	for _, p := range payloads(30) {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RemoveObsolete(l.NextSeq() - 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := slow.Next(1 << 10); !errors.Is(err, ErrCompacted) {
		t.Fatalf("slow tail after compaction = %v, want ErrCompacted", err)
	}
}

func TestTailPending(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range payloads(20) {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	tail, err := l.TailAfter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	seqs, bytes0 := tail.Pending()
	if seqs != 20 || bytes0 <= 0 {
		t.Fatalf("pending before reading = (%d, %d)", seqs, bytes0)
	}
	drainTailCursor(t, tail)
	if seqs, b := tail.Pending(); seqs != 0 || b != 0 {
		t.Fatalf("pending after draining = (%d, %d)", seqs, b)
	}
}

func drainTailCursor(t *testing.T, tail *Tail) {
	t.Helper()
	for {
		_, n, _, err := tail.Next(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return
		}
	}
}

// TestTornTailFirstFrameOfFreshSegment: when the corrupt record is the
// very first frame of a newly rotated segment, recovery must keep every
// earlier record, truncate the fresh segment to zero bytes and continue
// appending at the right sequence.
func TestTornTailFirstFrameOfFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := payloads(10)
	for _, p := range want {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("doomed-record")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the first frame of the fresh segment (record 11): flip a
	// payload byte so the CRC fails.
	segPath := filepath.Join(dir, fmt.Sprintf("%020d%s", 11, segmentSuffix))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("fresh segment is empty before corruption")
	}
	data[headerSize+seqSize] ^= 0xFF
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != 10 || info.LastSeq != 10 {
		t.Fatalf("recovery info = %+v, want 10 records through seq 10", info)
	}
	if info.TruncatedBytes != int64(len(data)) {
		t.Fatalf("truncated %d bytes, want the whole fresh segment (%d)", info.TruncatedBytes, len(data))
	}
	got := collect(t, l2, 0)
	if len(got) != 10 || !bytes.Equal(got[9], want[9]) {
		t.Fatalf("surviving records: %d", len(got))
	}
	// Appends continue exactly where the torn record was cut.
	seq, err := l2.Append([]byte("after-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("post-recovery append got seq %d, want 11", seq)
	}
	if fi, err := os.Stat(segPath); err != nil || fi.Size() == 0 {
		t.Fatalf("active segment after re-append: size %v err %v", fi, err)
	}
}

func TestFrameReaderRejectsCorruptStreams(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range payloads(3) {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	tail, err := l.TailAfter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	frames, n, _, err := tail.Next(1 << 20)
	if err != nil || n != 3 {
		t.Fatalf("tail: n=%d err=%v", n, err)
	}
	wire := append([]byte(nil), frames...)

	// Mid-frame cut → io.ErrUnexpectedEOF.
	fr := NewFrameReader(bytes.NewReader(wire[:len(wire)-3]))
	var lastErr error
	for {
		_, _, err := fr.Next()
		if err != nil {
			lastErr = err
			break
		}
	}
	if lastErr != io.ErrUnexpectedEOF {
		t.Fatalf("truncated stream error = %v, want io.ErrUnexpectedEOF", lastErr)
	}

	// Flipped payload byte → CRC error.
	bad := append([]byte(nil), wire...)
	bad[headerSize+seqSize+1] ^= 0x01
	fr = NewFrameReader(bytes.NewReader(bad))
	if _, _, err := fr.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("corrupt frame error = %v, want CRC failure", err)
	}

	// Absurd length prefix → bounds error.
	bad = append([]byte(nil), wire...)
	binary.LittleEndian.PutUint32(bad[0:4], uint32(MaxRecordBytes+seqSize+1))
	fr = NewFrameReader(bytes.NewReader(bad))
	if _, _, err := fr.Next(); err == nil {
		t.Fatal("oversized length accepted")
	}
}

// TestFrameReaderTornClaimNotAllocated reads a stream that is nothing
// but a frame header claiming a MaxRecordBytes payload: the cut is
// reported without allocating the length the header claims. Frames
// larger than the first read step still arrive whole through a reader
// that returns a few bytes at a time.
func TestFrameReaderTornClaimNotAllocated(t *testing.T) {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxRecordBytes+seqSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := NewFrameReader(bytes.NewReader(hdr[:])).Next()
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("torn claim error = %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Next allocated %d bytes to read a %d-byte stream", alloc, headerSize)
	}

	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := [][]byte{bytes.Repeat([]byte("0123456789abcdef"), 20000), []byte("small"), bytes.Repeat([]byte("x"), 3*frameReadStep+1)}
	for _, p := range want {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	tail, err := l.TailAfter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	frames, n, _, err := tail.Next(MaxRecordBytes)
	if err != nil || n != len(want) {
		t.Fatalf("tail: n=%d err=%v", n, err)
	}
	fr := NewFrameReader(iotest.HalfReader(bytes.NewReader(frames)))
	for i, p := range want {
		seq, got, err := fr.Next()
		if err != nil || seq != uint64(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: seq %d, %d bytes, err %v; want seq %d, %d bytes", i, seq, len(got), err, i+1, len(p))
		}
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream error = %v, want io.EOF", err)
	}
}

func TestSnapshotRawRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok, err := LoadLatestSnapshotRaw(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	payload := []byte(`{"hello":"snapshot"}`)
	if _, err := WriteSnapshot(dir, 42, payload); err != nil {
		t.Fatal(err)
	}
	raw, seq, ok, err := LoadLatestSnapshotRaw(dir)
	if err != nil || !ok || seq != 42 {
		t.Fatalf("load raw: seq=%d ok=%v err=%v", seq, ok, err)
	}
	decoded, err := DecodeSnapshot(raw)
	if err != nil || !bytes.Equal(decoded, payload) {
		t.Fatalf("decode: %q err=%v", decoded, err)
	}
	// A flipped payload byte fails the container checksum.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0x01
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("corrupt snapshot container accepted")
	}
}
