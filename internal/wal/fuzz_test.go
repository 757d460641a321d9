package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// refFrames is the reference parser of a segment whose records start
// at seq 1: it returns the payloads of the longest prefix of frames
// that have a length in [8, MaxRecordBytes+8], a matching CRC32C and
// seqs 1, 2, 3, …, and that prefix's size in bytes.
func refFrames(b []byte) (payloads [][]byte, size int) {
	for seq := uint64(1); ; seq++ {
		rest := b[size:]
		if len(rest) < 8 {
			return payloads, size
		}
		n := binary.LittleEndian.Uint32(rest)
		if n < 8 || n > MaxRecordBytes+8 || uint64(n) > uint64(len(rest)-8) {
			return payloads, size
		}
		body := rest[8 : 8+n]
		if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(rest[4:]) ||
			binary.LittleEndian.Uint64(body) != seq {
			return payloads, size
		}
		payloads = append(payloads, body[8:])
		size += 8 + int(n)
	}
}

// FuzzSegmentReader writes arbitrary bytes as the log's first segment
// and holds Open to the reference parser: it keeps exactly the frames
// refFrames accepts, truncates the file to them, replays them, and
// gives the next append the next seq. The committed corpus holds a
// valid three-frame segment, a torn frame, a flipped CRC, a length of
// 0xFFFFFFFF and a seq gap.
func FuzzSegmentReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "00000000000000000001"+segmentSuffix)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		want, size := refFrames(b)

		l, info, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer l.Close()
		if info.Records != len(want) || info.TruncatedBytes != int64(len(b)-size) {
			t.Fatalf("recovery info %+v, want %d records and %d truncated bytes", info, len(want), len(b)-size)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(size) {
			t.Fatalf("segment left at %v bytes (%v), want %d", fi.Size(), err, size)
		}
		got := collect(t, l, 0)
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d = %q, want %q", i+1, got[i], want[i])
			}
		}
		seq, err := l.Append([]byte("next"))
		if err != nil || seq != uint64(len(want))+1 {
			t.Fatalf("next append got seq %d (%v), want %d", seq, err, len(want)+1)
		}
	})
}
