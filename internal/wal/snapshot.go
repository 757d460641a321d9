// Snapshot files: an atomic, checksummed container for a
// point-in-time serialization of the store. A snapshot taken after
// applying WAL record S is named %020d.snap with S in the name; on
// recovery the newest readable snapshot is loaded and the WAL is
// replayed from S+1. Snapshots are written to a temp file, fsynced and
// renamed into place, so a crash mid-write can never damage an
// existing snapshot — at worst it leaves an ignorable *.tmp file.
//
// On-disk format (integers little-endian):
//
//	offset  0: 8-byte magic "osarsnap"
//	offset  8: uint32 format version (1)
//	offset 12: uint32 CRC32C over the payload
//	offset 16: uint64 payload length
//	offset 24: payload bytes (opaque to this package; the store uses JSON)

package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	snapshotSuffix  = ".snap"
	snapshotMagic   = "osarsnap"
	snapshotVersion = 1
	snapshotHeader  = 24
)

// WriteSnapshot atomically writes a snapshot of payload covering WAL
// records ≤ seq into dir and returns its path.
func WriteSnapshot(dir string, seq uint64, payload []byte) (string, error) {
	return WriteSnapshotStream(dir, seq, func(w io.Writer) error { _, err := w.Write(payload); return err })
}

// WriteSnapshotStream atomically writes a snapshot covering WAL records
// ≤ seq into dir, its payload streamed by write, and returns its path.
// The header's place is reserved and its checksum and length are taken
// as the payload passes, so the header is written last, at offset 0,
// before the file is synced and renamed into place. An error from
// write leaves no file behind.
func WriteSnapshotStream(dir string, seq uint64, write func(io.Writer) error) (string, error) {
	tmp, err := os.CreateTemp(dir, "snapshot-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	defer tmp.Close()           // error paths; the success path closes it below

	var hdr [snapshotHeader]byte
	if _, err := tmp.Write(hdr[:]); err != nil {
		return "", err
	}
	pw := payloadWriter{f: tmp}
	if err := write(&pw); err != nil {
		return "", err
	}
	copy(hdr[0:8], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], snapshotVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], pw.crc)
	binary.LittleEndian.PutUint64(hdr[16:24], pw.n)
	if _, err := tmp.WriteAt(hdr[:], 0); err != nil {
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	final := SnapshotPath(dir, seq)
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", err
	}
	return final, syncDir(dir)
}

// payloadWriter writes a snapshot payload to its file, keeping the
// CRC32C and the length of what was written.
type payloadWriter struct {
	f   *os.File
	crc uint32
	n   uint64
}

func (w *payloadWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.crc = crc32.Update(w.crc, castagnoli, p[:n])
	w.n += uint64(n)
	return n, err
}

// ReadSnapshot loads and verifies one snapshot file.
func ReadSnapshot(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}

// ListSnapshots returns the sequence numbers of dir's snapshot files
// in ascending order.
func ListSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapshotSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, snapshotSuffix), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// SnapshotPath returns the snapshot file path for seq in dir.
func SnapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d%s", seq, snapshotSuffix))
}

// LoadLatestSnapshot returns the newest snapshot that reads back
// cleanly, its sequence number, and whether one was found. Corrupt
// snapshots are skipped (newest-first). An older snapshot is only a
// complete recovery point while the log still holds every record after
// it; the store refuses to open when the log starts past it.
func LoadLatestSnapshot(dir string) (payload []byte, seq uint64, ok bool, err error) {
	seqs, err := ListSnapshots(dir)
	if err != nil {
		return nil, 0, false, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		payload, err := ReadSnapshot(SnapshotPath(dir, seqs[i]))
		if err == nil {
			return payload, seqs[i], true, nil
		}
	}
	return nil, 0, false, nil
}

// PruneSnapshots removes all but the newest keep snapshot files (and
// any stale temp files from interrupted writes). The store compacts the
// log up to each snapshot it writes, so the extra generations it keeps
// can stand in for a corrupt newest one only while the log still
// reaches back to them: a log that starts past the loaded snapshot
// makes recovery fail rather than drop the records in between.
func PruneSnapshots(dir string, keep int) (removed int, err error) {
	if keep < 1 {
		keep = 1
	}
	seqs, err := ListSnapshots(dir)
	if err != nil {
		return 0, err
	}
	for i := 0; i+keep < len(seqs); i++ {
		if err := os.Remove(SnapshotPath(dir, seqs[i])); err != nil {
			return removed, err
		}
		removed++
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return removed, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "snapshot-") && strings.HasSuffix(e.Name(), ".tmp") {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return removed, nil
}
