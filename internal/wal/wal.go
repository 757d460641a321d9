// Package wal implements the durability layer of the stateful corpus
// store: a segmented, CRC32C-framed, length-prefixed write-ahead log
// plus an atomic snapshot file format (snapshot.go).
//
// The log is a sequence of records with contiguous, monotonically
// increasing sequence numbers, spread over segment files named by the
// first sequence number they contain (e.g. 00000000000000000001.wal).
// Appends go to the newest ("active") segment; when it outgrows the
// segment byte budget the log rotates to a fresh file. Closed segments
// are immutable, which is what makes compaction trivial: once a
// snapshot covers every record of a closed segment, the whole file is
// deleted (RemoveObsolete).
//
// On-disk frame format (all integers little-endian):
//
//	offset 0: uint32 length of the framed body (8 + len(payload))
//	offset 4: uint32 CRC32C (Castagnoli) over the framed body
//	offset 8: uint64 sequence number
//	offset 16: payload bytes
//
// Torn-tail recovery: a crash can leave the active segment with a
// partially written frame (short header, short body, or a body whose
// CRC does not match). Open scans every segment in order and truncates
// the log at the FIRST corrupt or discontinuous record — the clean
// prefix before it is exactly the set of writes the log can vouch for.
// Any later segments (possible only if corruption struck a closed
// segment) are deleted, so the log never replays records that come
// after a hole.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"osars/internal/obs"
)

const (
	segmentSuffix = ".wal"
	// headerSize is the fixed frame prefix: length + CRC.
	headerSize = 8
	// seqSize is the sequence number inside the framed body.
	seqSize = 8
	// MaxRecordBytes bounds a single record's payload. A corrupted
	// length field could otherwise ask the reader to allocate
	// gigabytes; anything above this is treated as a torn tail.
	MaxRecordBytes = 64 << 20
	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// it zero.
	DefaultSegmentBytes = 8 << 20
)

// castagnoli is the CRC32C table (same polynomial as the one used by
// leveldb/etcd WALs and by SSE4.2 hardware CRC).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes (default DefaultSegmentBytes).
	SegmentBytes int64

	// Optional instruments, injected by the store layer so each
	// shard's log reports under its own label. All are nil-safe: a
	// zero Options disables WAL metrics entirely.

	// FsyncSeconds observes the latency of each real fsync (skipped
	// no-op syncs are not observed).
	FsyncSeconds *obs.Histogram
	// BytesWritten counts framed bytes handed to the segment file.
	BytesWritten *obs.Counter
	// Rotations counts segment rotations (including the initial
	// segment creation at Open).
	Rotations *obs.Counter
}

// RecoveryInfo reports what Open had to do to reach a clean log.
type RecoveryInfo struct {
	// FirstSeq and LastSeq bound the surviving records (both zero for
	// an empty log).
	FirstSeq uint64
	LastSeq  uint64
	// Records is the number of surviving records.
	Records int
	// TruncatedBytes counts bytes cut from a torn or corrupt segment
	// tail.
	TruncatedBytes int64
	// DroppedSegments counts whole segment files deleted because they
	// followed a corrupt record.
	DroppedSegments int
}

// segment is one on-disk file of the log.
type segment struct {
	path     string
	firstSeq uint64 // sequence number of the first record in the file
	size     int64
}

// Log is a segmented write-ahead log. All methods are safe for
// concurrent use, though appends are serialized internally; the store
// additionally serializes Append with its own state lock so that log
// order always equals apply order.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segments []segment // sorted by firstSeq; last one is active
	active   *os.File  // open handle on the last segment
	nextSeq  uint64
	dirty    bool // true if writes happened since the last Sync
	buf      []byte
	// notify, when non-nil, is closed (and cleared) by the next Append
	// so tailing readers can block instead of polling (AppendNotify).
	notify chan struct{}
}

// Open scans dir for segment files, validates every record, truncates
// the log at the first corrupt record and returns a Log positioned to
// append after the last clean record. The directory is created if
// missing.
func Open(dir string, opts Options) (*Log, RecoveryInfo, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}

	var info RecoveryInfo
	l := &Log{dir: dir, opts: opts, nextSeq: 1}
	for i := 0; i < len(segs); i++ {
		seg := &segs[i]
		if i == 0 {
			l.nextSeq = seg.firstSeq
			info.FirstSeq = seg.firstSeq
		}
		validBytes, n, err := scanSegment(seg.path, seg.size, l.nextSeq)
		if err != nil {
			return nil, RecoveryInfo{}, err
		}
		l.nextSeq += uint64(n)
		info.Records += n
		if validBytes < seg.size {
			// Torn or corrupt tail: cut the file back to the clean
			// prefix and drop every later segment — records beyond a
			// hole must never replay.
			info.TruncatedBytes += seg.size - validBytes
			if err := os.Truncate(seg.path, validBytes); err != nil {
				return nil, RecoveryInfo{}, err
			}
			seg.size = validBytes
			for _, later := range segs[i+1:] {
				info.TruncatedBytes += later.size
				info.DroppedSegments++
				if err := os.Remove(later.path); err != nil {
					return nil, RecoveryInfo{}, err
				}
			}
			segs = segs[:i+1]
			break
		}
	}
	if info.Records > 0 {
		info.LastSeq = l.nextSeq - 1
	} else {
		info.FirstSeq = 0
	}
	l.segments = segs

	// Open (or create) the active segment for appending.
	if len(l.segments) == 0 {
		if err := l.rotateLocked(); err != nil {
			return nil, RecoveryInfo{}, err
		}
	} else {
		last := &l.segments[len(l.segments)-1]
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, RecoveryInfo{}, err
		}
		l.active = f
	}
	return l, info, nil
}

// listSegments returns dir's segment files sorted by first sequence
// number.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 10, 64)
		if err != nil {
			continue // not ours
		}
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segment{
			path:     filepath.Join(dir, name),
			firstSeq: seq,
			size:     fi.Size(),
		})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// scanSegment validates the records of a segment of size bytes
// starting at wantSeq and returns the byte offset of the end of the
// last valid record plus the number of valid records. Corruption is
// not an error — the caller truncates.
func scanSegment(path string, size int64, wantSeq uint64) (validBytes int64, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := &segmentReader{f: f, size: size}
	for {
		seq, _, ok, err := r.next()
		if err != nil {
			return 0, 0, err
		}
		if !ok || seq != wantSeq {
			return validBytes, records, nil
		}
		validBytes = r.offset
		records++
		wantSeq++
	}
}

// segmentReader iterates the frames of one segment file of size bytes,
// reporting torn/corrupt tails as a clean end-of-iteration.
type segmentReader struct {
	f      *os.File
	size   int64
	offset int64
	hdr    [headerSize]byte
	body   []byte
}

// next returns the next record, or ok=false at the end of the valid
// prefix (clean EOF, short frame, oversized length or CRC mismatch).
// A frame that claims to end past the end of the file is a short
// frame, found before its body is allocated: a corrupt length costs
// no allocation. The returned payload is only valid until the next
// call.
func (r *segmentReader) next() (seq uint64, payload []byte, ok bool, err error) {
	if _, err := io.ReadFull(r.f, r.hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, false, nil
		}
		return 0, nil, false, err
	}
	length := binary.LittleEndian.Uint32(r.hdr[0:4])
	crc := binary.LittleEndian.Uint32(r.hdr[4:8])
	if length < seqSize || length > MaxRecordBytes+seqSize || r.offset+headerSize+int64(length) > r.size {
		return 0, nil, false, nil
	}
	if cap(r.body) < int(length) {
		r.body = make([]byte, length)
	}
	r.body = r.body[:length]
	if _, err := io.ReadFull(r.f, r.body); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, false, nil
		}
		return 0, nil, false, err
	}
	if crc32.Checksum(r.body, castagnoli) != crc {
		return 0, nil, false, nil
	}
	r.offset += int64(headerSize) + int64(length)
	return binary.LittleEndian.Uint64(r.body[:seqSize]), r.body[seqSize:], true, nil
}

// Append frames payload, writes it to the active segment (rotating
// first if the segment is over budget) and returns its sequence
// number. The write is buffered by the OS only — call Sync (or use a
// store fsync policy) to force it to stable storage.
func (l *Log) Append(payload []byte) (uint64, error) {
	bufs := [1][]byte{payload}
	return l.AppendBatch(bufs[:])
}

// AppendBatch frames every payload, writes them all to the active
// segment with ONE Write call and returns the sequence number of the
// first record; the batch gets contiguous sequence numbers in slice
// order. This is the group-commit primitive: N writers' records cost
// one buffer encode, one syscall and — with a following Sync — one
// fsync, instead of N of each. The append notification fires ONCE for
// the whole batch, so a tailing replica wakes per batch, not per
// record. The batch is placed in a single segment (rotating first when
// the active segment is over budget), so a torn tail can only ever cut
// the batch's frame suffix, never interleave it with other records.
//
// An empty batch is a no-op and returns the current next sequence
// number. The write is buffered by the OS only — call Sync to force it
// to stable storage.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	total := 0
	for _, p := range payloads {
		if len(p) > MaxRecordBytes {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes (%d)", len(p), MaxRecordBytes)
		}
		total += headerSize + seqSize + len(p)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return 0, errors.New("wal: log is closed")
	}
	if len(payloads) == 0 {
		return l.nextSeq, nil
	}
	last := &l.segments[len(l.segments)-1]
	if last.size > 0 && last.size+int64(total) > l.opts.SegmentBytes {
		if err := l.rotateSyncedLocked(); err != nil {
			return 0, err
		}
		last = &l.segments[len(l.segments)-1]
	}

	firstSeq := l.nextSeq
	frame := l.growBuf(total)
	off := 0
	seq := firstSeq
	for _, p := range payloads {
		need := headerSize + seqSize + len(p)
		f := frame[off : off+need]
		binary.LittleEndian.PutUint32(f[0:4], uint32(seqSize+len(p)))
		binary.LittleEndian.PutUint64(f[8:16], seq)
		copy(f[16:], p)
		binary.LittleEndian.PutUint32(f[4:8], crc32.Checksum(f[8:], castagnoli))
		off += need
		seq++
	}
	if _, err := l.active.Write(frame); err != nil {
		return 0, err
	}
	l.opts.BytesWritten.Add(uint64(total))
	last.size += int64(total)
	l.nextSeq = seq
	l.dirty = true
	if l.notify != nil {
		close(l.notify)
		l.notify = nil
	}
	return firstSeq, nil
}

// growBuf returns the log's reusable frame buffer sized to need bytes,
// growing the backing array geometrically so a sequence of
// ever-larger records (or batches) costs O(log n) reallocations
// instead of one per size increase.
func (l *Log) growBuf(need int) []byte {
	if cap(l.buf) < need {
		newCap := 2 * cap(l.buf)
		if newCap < need {
			newCap = need
		}
		if newCap < 4096 {
			newCap = 4096
		}
		l.buf = make([]byte, newCap)
	}
	return l.buf[:need]
}

// Sync forces everything appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.active == nil || !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.opts.FsyncSeconds.ObserveSince(start)
	l.dirty = false
	return nil
}

// Rotate closes the active segment and starts a new one. Used before
// compaction so that every record at or below the snapshot point lives
// in a closed (hence deletable) segment. Rotating an empty active
// segment is a no-op (it would create a second file with the same
// name).
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return errors.New("wal: log is closed")
	}
	if l.segments[len(l.segments)-1].size == 0 {
		return nil
	}
	return l.rotateSyncedLocked()
}

// SkipTo fast-forwards the log so the next Append gets sequence number
// seq. It is used during recovery when a snapshot covers records the
// log itself no longer holds (e.g. the WAL directory was damaged but a
// snapshot survived): every existing record is below seq and covered
// by that snapshot, so all current segments are dropped and a fresh
// one starts exactly at seq — keeping the on-disk invariant that
// segment sequences are contiguous.
func (l *Log) SkipTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return errors.New("wal: log is closed")
	}
	if seq <= l.nextSeq {
		return nil
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	l.active = nil
	for _, seg := range l.segments {
		if err := os.Remove(seg.path); err != nil {
			return err
		}
	}
	l.segments = l.segments[:0]
	l.nextSeq = seq
	return l.rotateLocked()
}

// rotateSyncedLocked syncs and closes the active segment, then opens a
// fresh one. Syncing first guarantees a closed segment is durable
// before any later segment (or a snapshot covering it) exists.
func (l *Log) rotateSyncedLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	l.active = nil
	return l.rotateLocked()
}

// rotateLocked opens a new active segment starting at nextSeq.
func (l *Log) rotateLocked() error {
	path := filepath.Join(l.dir, fmt.Sprintf("%020d%s", l.nextSeq, segmentSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.active = f
	l.segments = append(l.segments, segment{path: path, firstSeq: l.nextSeq})
	l.opts.Rotations.Inc()
	return syncDir(l.dir)
}

// Replay calls fn for every record with seq > after, in order. It
// re-reads the segment files, so it is normally called once right
// after Open. The payload slice is reused between calls; fn must copy
// it if it retains it.
func (l *Log) Replay(after uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segments...)
	l.mu.Unlock()
	for i, seg := range segs {
		if seg.size == 0 {
			continue
		}
		// Skip segments that end before the replay point: a segment's
		// records end where the next segment's first record begins.
		if i+1 < len(segs) && segs[i+1].firstSeq <= after+1 {
			continue
		}
		if err := replaySegment(seg.path, after, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(path string, after uint64, fn func(seq uint64, payload []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	r := &segmentReader{f: f, size: fi.Size()}
	for {
		seq, payload, ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if seq <= after {
			continue
		}
		if err := fn(seq, payload); err != nil {
			return err
		}
	}
}

// RemoveObsolete deletes closed segments whose every record has
// seq ≤ upTo (i.e. segments fully covered by a snapshot taken at
// upTo). The active segment is never removed. Returns the number of
// segment files deleted.
func (l *Log) RemoveObsolete(upTo uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segments) > 1 {
		// The first segment's records end where the second begins.
		if l.segments[1].firstSeq > upTo+1 {
			break
		}
		if err := os.Remove(l.segments[0].path); err != nil {
			return removed, err
		}
		l.segments = l.segments[1:]
		removed++
	}
	if removed > 0 {
		if err := syncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// NextSeq returns the sequence number the next Append will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Close syncs and closes the active segment. The log cannot be used
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}

// syncDir fsyncs a directory so file creations/removals inside it are
// durable. Some platforms (or filesystems) reject fsync on a
// directory; that is not fatal for correctness of the data itself, so
// such errors are ignored.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
