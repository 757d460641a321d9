// Tailing reader: the replication counterpart of Replay. A Tail reads
// raw WAL frames with seq > after and keeps reading as the log grows —
// concurrently with appends, across segment rotations — which is what
// the primary's /v1/repl/stream handler ships to read replicas.
//
// Concurrency argument: Append writes the whole frame to the active
// segment and bumps the in-memory segment size inside the same l.mu
// critical section. A Tail snapshots the segment metadata (paths,
// first sequence numbers, sizes) under l.mu and never reads a byte at
// an offset ≥ the snapshotted size, so every byte it reads was fully
// written before the lock was released — a tailing read can observe a
// clean prefix but never a torn frame. Compaction can delete a closed
// segment out from under a slow Tail; the next read detects that the
// cursor's sequence number now precedes the oldest retained record and
// returns ErrCompacted, telling the follower to bootstrap from a
// snapshot instead.

package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrCompacted is returned by TailAfter and Tail.Next when the
// requested records were compacted away (a snapshot covers them and
// their segments were removed). The caller must restart from a
// snapshot at or after the compaction point.
var ErrCompacted = errors.New("wal: requested records were compacted; restart from a snapshot")

// ErrClosed is returned by Tail.Next after the log is closed.
var ErrClosed = errors.New("wal: log is closed")

// FrameSize returns the on-wire/on-disk size of one frame carrying a
// payload of n bytes.
func FrameSize(n int) int { return headerSize + seqSize + n }

// Tail is a cursor over the log's frames, safe to use concurrently
// with Append/Rotate/RemoveObsolete on the same Log (but not with
// other methods on the same Tail). Create with Log.TailAfter.
type Tail struct {
	l    *Log
	next uint64 // next sequence number to deliver

	f        *os.File // read handle on the current segment (nil between segments)
	segFirst uint64   // firstSeq of the segment f reads
	offset   int64    // byte offset of the next unread frame in f
	out      []byte   // reusable batch buffer
	hdr      [headerSize]byte
}

// TailAfter returns a Tail positioned to deliver records with
// seq > after. It returns ErrCompacted when the log no longer holds
// record after+1 (unless after+1 is the log's next append position,
// i.e. the caller is fully caught up).
func (l *Log) TailAfter(after uint64) (*Tail, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil, ErrClosed
	}
	if after+1 < l.segments[0].firstSeq {
		return nil, ErrCompacted
	}
	return &Tail{l: l, next: after + 1}, nil
}

// NextSeq returns the sequence number the next call to Next will
// deliver first.
func (t *Tail) NextSeq() uint64 { return t.next }

// Next reads a batch of raw frames (the exact on-disk byte framing:
// length, CRC32C, seq, payload back to back) totalling at most
// maxBytes, though a single frame larger than maxBytes is still
// delivered whole. It returns the frame bytes, the record count, and
// the first sequence number of the batch. A (nil, 0) return with a nil
// error means the tail is caught up with the log; wait on
// Log.AppendNotify and call again. The returned slice is reused by the
// next call.
func (t *Tail) Next(maxBytes int) (frames []byte, count int, first uint64, err error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	t.out = t.out[:0]
	first = t.next
	for len(t.out) < maxBytes {
		segs, err := t.snapshotSegments()
		if err != nil {
			return nil, 0, 0, err
		}
		idx := segmentFor(segs, t.next)
		if idx < 0 {
			// t.next is past every stored record: caught up.
			break
		}
		if err := t.position(segs, idx); err != nil {
			return nil, 0, 0, err
		}
		limit := segs[idx].size
		if t.offset >= limit {
			if idx == len(segs)-1 {
				break // end of the active segment: caught up
			}
			// Closed segment exhausted: step to the next one.
			t.closeFile()
			t.segFirst = segs[idx+1].firstSeq
			t.offset = 0
			continue
		}
		n, err := t.readFrames(limit, maxBytes)
		if err != nil {
			return nil, 0, 0, err
		}
		count += n
		if n == 0 {
			break
		}
	}
	if count == 0 {
		return nil, 0, first, nil
	}
	return t.out, count, first, nil
}

// snapshotSegments copies the live segment metadata under the log
// lock, checking the tail has not been compacted past.
func (t *Tail) snapshotSegments() ([]segment, error) {
	l := t.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil, ErrClosed
	}
	if t.next < l.segments[0].firstSeq {
		return nil, ErrCompacted
	}
	return append([]segment(nil), l.segments...), nil
}

// segmentFor returns the index of the segment holding seq, or -1 when
// seq is beyond the last stored record's segment start bookkeeping.
func segmentFor(segs []segment, seq uint64) int {
	idx := -1
	for i := range segs {
		if segs[i].firstSeq <= seq {
			idx = i
		}
	}
	return idx
}

// position opens (or re-opens) the segment file at idx and seeks the
// cursor to t.next, scanning over earlier frames when entering the
// segment cold.
func (t *Tail) position(segs []segment, idx int) error {
	seg := &segs[idx]
	if t.f != nil && t.segFirst == seg.firstSeq {
		return nil
	}
	t.closeFile()
	f, err := os.Open(seg.path)
	if err != nil {
		if os.IsNotExist(err) {
			// Compacted between the metadata snapshot and the open.
			return ErrCompacted
		}
		return err
	}
	t.f = f
	t.segFirst = seg.firstSeq
	t.offset = 0
	// Skip frames below t.next (cold entry into a segment mid-way,
	// e.g. the first positioning after TailAfter).
	for seq := seg.firstSeq; seq < t.next; seq++ {
		if _, err := f.ReadAt(t.hdr[:], t.offset); err != nil {
			return fmt.Errorf("wal: tail skip-scan %s: %w", seg.path, err)
		}
		length := binary.LittleEndian.Uint32(t.hdr[0:4])
		if length < seqSize || length > MaxRecordBytes+seqSize {
			return fmt.Errorf("wal: tail skip-scan %s: bad frame length %d at offset %d", seg.path, length, t.offset)
		}
		t.offset += int64(headerSize) + int64(length)
	}
	return nil
}

// readFrames appends whole verified frames from the current segment to
// t.out, stopping at the snapshotted limit or once maxBytes is
// reached. Every byte below limit is guaranteed fully written (see the
// package comment), so any validation failure here is real corruption.
func (t *Tail) readFrames(limit int64, maxBytes int) (int, error) {
	count := 0
	for t.offset < limit && len(t.out) < maxBytes {
		if _, err := t.f.ReadAt(t.hdr[:], t.offset); err != nil {
			return count, fmt.Errorf("wal: tail read header: %w", err)
		}
		length := binary.LittleEndian.Uint32(t.hdr[0:4])
		if length < seqSize || length > MaxRecordBytes+seqSize {
			return count, fmt.Errorf("wal: tail: corrupt frame length %d at seq %d", length, t.next)
		}
		frameLen := int64(headerSize) + int64(length)
		if t.offset+frameLen > limit {
			return count, fmt.Errorf("wal: tail: frame at seq %d crosses the committed segment boundary", t.next)
		}
		start := len(t.out)
		t.out = append(t.out, make([]byte, frameLen)...)
		frame := t.out[start:]
		if _, err := t.f.ReadAt(frame, t.offset); err != nil {
			return count, fmt.Errorf("wal: tail read frame: %w", err)
		}
		body := frame[headerSize:]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(frame[4:8]) {
			return count, fmt.Errorf("wal: tail: CRC mismatch at seq %d", t.next)
		}
		if seq := binary.LittleEndian.Uint64(body[:seqSize]); seq != t.next {
			return count, fmt.Errorf("wal: tail: discontinuous sequence: got %d, want %d", seq, t.next)
		}
		t.offset += frameLen
		t.next++
		count++
	}
	return count, nil
}

// Pending reports how far the tail lags the log: the number of records
// not yet delivered and the (slightly approximate, see below) bytes
// they occupy on disk. The byte count over-approximates by the frames
// preceding the cursor within its segment when the tail has not read
// from that segment yet.
func (t *Tail) Pending() (seqs uint64, bytes int64) {
	l := t.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil || t.next >= l.nextSeq {
		return 0, 0
	}
	seqs = l.nextSeq - t.next
	idx := segmentFor(l.segments, t.next)
	if idx < 0 {
		return seqs, 0
	}
	for i := idx; i < len(l.segments); i++ {
		bytes += l.segments[i].size
	}
	if t.f != nil && t.segFirst == l.segments[idx].firstSeq {
		bytes -= t.offset
	}
	return seqs, bytes
}

// Close releases the tail's file handle. The Log itself is unaffected.
func (t *Tail) Close() error {
	t.closeFile()
	return nil
}

func (t *Tail) closeFile() {
	if t.f != nil {
		t.f.Close()
		t.f = nil
	}
}

// AppendNotify returns a channel that is closed after the next Append.
// Tailing callers wait on it when Tail.Next reports caught-up, instead
// of polling. Each returned channel fires once; call again for the
// next wakeup.
func (l *Log) AppendNotify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.notify == nil {
		l.notify = make(chan struct{})
	}
	return l.notify
}

// OldestSeq returns the first sequence number the log still holds
// (nextSeq for an empty or fully compacted log).
func (l *Log) OldestSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segments[0].firstSeq
}

// SizeBytes returns the total on-disk size of all live segments.
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for i := range l.segments {
		n += l.segments[i].size
	}
	return n
}

// FrameReader parses a stream of raw WAL frames (the byte format Tail
// emits and the on-disk segments store) from an io.Reader, verifying
// length bounds and CRC32C per frame. Unlike the torn-tail-tolerant
// segment scanner, a FrameReader is strict: a short or corrupt frame
// is an error, because on a replication stream it means wire
// corruption, not a crash artifact. A clean end between frames returns
// io.EOF.
type FrameReader struct {
	r    io.Reader
	hdr  [headerSize]byte
	body []byte
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next returns the next frame's sequence number and payload. The
// payload is only valid until the following call. io.EOF marks a clean
// end of stream; io.ErrUnexpectedEOF a mid-frame cut.
func (fr *FrameReader) Next() (seq uint64, payload []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, io.ErrUnexpectedEOF
	}
	length := binary.LittleEndian.Uint32(fr.hdr[0:4])
	crc := binary.LittleEndian.Uint32(fr.hdr[4:8])
	if length < seqSize || length > MaxRecordBytes+seqSize {
		return 0, nil, fmt.Errorf("wal: stream frame length %d out of bounds", length)
	}
	if err := fr.readBody(int(length)); err != nil {
		return 0, nil, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(fr.body, castagnoli) != crc {
		return 0, nil, errors.New("wal: stream frame CRC mismatch")
	}
	return binary.LittleEndian.Uint64(fr.body[:seqSize]), fr.body[seqSize:], nil
}

// frameReadStep is the most a FrameReader allocates for a frame body
// before any of it has arrived.
const frameReadStep = 64 << 10

// readBody reads an n-byte frame body into fr.body. A stream has no
// size to check a header's length against, so the body grows only with
// the bytes that arrive: to at most twice what was read, or
// frameReadStep, before it is read into.
func (fr *FrameReader) readBody(n int) error {
	body := fr.body[:0]
	for len(body) < n {
		if len(body) == cap(body) {
			grown := make([]byte, len(body), min(n, max(2*len(body), frameReadStep)))
			copy(grown, body)
			body = grown
		}
		k, err := io.ReadFull(fr.r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+k]
		if err != nil {
			fr.body = body
			return err
		}
	}
	fr.body = body
	return nil
}

// LoadLatestSnapshotRaw returns the newest readable snapshot as its
// raw container bytes (magic, version, CRC, length, payload) plus its
// sequence number — the shape the primary ships to a bootstrapping
// replica, which verifies it with DecodeSnapshot.
func LoadLatestSnapshotRaw(dir string) (raw []byte, seq uint64, ok bool, err error) {
	seqs, err := ListSnapshots(dir)
	if err != nil {
		return nil, 0, false, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		path := SnapshotPath(dir, seqs[i])
		data, err := os.ReadFile(path)
		if err != nil {
			continue // pruned or unreadable; try the older one
		}
		if _, derr := DecodeSnapshot(data); derr != nil {
			continue
		}
		return data, seqs[i], true, nil
	}
	return nil, 0, false, nil
}

// DecodeSnapshot validates a raw snapshot container (as stored on disk
// and as shipped over the replication bootstrap endpoint) and returns
// its payload.
func DecodeSnapshot(data []byte) ([]byte, error) {
	if len(data) < snapshotHeader || string(data[0:8]) != snapshotMagic {
		return nil, errors.New("wal: not a snapshot container")
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != snapshotVersion {
		return nil, fmt.Errorf("wal: unsupported snapshot version %d", v)
	}
	n := binary.LittleEndian.Uint64(data[16:24])
	if uint64(len(data)-snapshotHeader) != n {
		return nil, fmt.Errorf("wal: truncated snapshot (%d of %d payload bytes)", len(data)-snapshotHeader, n)
	}
	payload := data[snapshotHeader:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[12:16]) {
		return nil, errors.New("wal: snapshot checksum mismatch")
	}
	return payload, nil
}
