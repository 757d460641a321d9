// Durability subsystem of the store: every state-changing operation
// (append, delete, ontology activation) is serialized to a segmented
// CRC32C write-ahead log before it is acknowledged, periodic snapshots
// serialize a consistent view of the corpus, and a compaction step
// retires WAL segments fully covered by the latest snapshot. Recovery
// is latest-snapshot-then-replay: New loads the newest readable
// snapshot (loadSnapshot, restoreLocked, which a replica's
// InstallSnapshot shares), refuses a log that does not continue it, and
// replays the WAL suffix record by record through decodeChange and
// applyLocked, the apply live writes go through, so a recovered store
// is byte-identical to the pre-crash store for every acknowledged
// write (including item generations and timestamps, which are logged,
// not re-minted).

package store

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"osars/internal/extract"
	"osars/internal/jsonscan"
	"osars/internal/model"
	"osars/internal/ontoreg"
	"osars/internal/wal"
)

// FsyncPolicy selects when WAL appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs before every append acknowledgment: an
	// acknowledged write survives power loss. The default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background timer (Config.FsyncInterval):
	// a crash can lose at most the last interval's acknowledged writes,
	// but ingestion throughput is close to FsyncNever.
	FsyncInterval
	// FsyncNever leaves syncing to the OS page cache: writes survive a
	// process crash (the data is in the kernel) but not power loss.
	FsyncNever
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses "always", "interval" or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// DefaultSnapshotEvery is the automatic snapshot cadence (logged
// records between snapshots) when Config.SnapshotEvery is zero.
const DefaultSnapshotEvery = 4096

// Defaults for the durability knobs.
const (
	DefaultFsyncInterval = 100 * time.Millisecond
	snapshotsToKeep      = 2 // newest + one older generation
)

// WAL record operations.
const (
	opAppend = "append"
	opDelete = "delete"
	// opActivate logs an ontology activation: the record carries the
	// full canonical entry payload, so replay (and a replica) rebuilds
	// the exact runtime without consulting any registry directory.
	opActivate = "activate"
)

// walRecord is the JSON payload of one WAL record, as decodeChange
// reads it; appendWalRecord writes it.
type walRecord struct {
	Op   string    `json:"op"`
	ID   string    `json:"id"`
	Name string    `json:"name,omitempty"`
	TS   time.Time `json:"ts"`
	// Reviews are an append's RAW reviews, not their annotations: replay
	// re-runs the deterministic extraction pipeline, which keeps records
	// small and lets a future pipeline version re-annotate history.
	// jsonWriter.raw writes each; Unmarshal matches its keys to
	// RawReview's fields case-insensitively.
	Reviews []extract.RawReview `json:"reviews,omitempty"`
	// Entry is the canonical ontology entry payload of an opActivate
	// record (ontoreg format, content-hash versioned).
	Entry json.RawMessage `json:"entry,omitempty"`
}

// snapItem is one item inside a snapshot: the annotated corpus plus
// the entry bookkeeping (generation, counters, timestamps). Raws and
// AnnVer (ontology lifecycle state) are append-only additions — old
// snapshots without them still load, with the raws reconstructed from
// the annotated corpus as the item is restored (entryFromSnap).
type snapItem struct {
	ID           string      `json:"id"`
	Gen          uint64      `json:"gen"`
	NumSentences int         `json:"num_sentences"`
	NumPairs     int         `json:"num_pairs"`
	CreatedAt    time.Time   `json:"created_at"`
	UpdatedAt    time.Time   `json:"updated_at"`
	Item         *model.Item `json:"item"`
	AnnVer       string      `json:"ann_ver,omitempty"`
	// Raws are written in their logged form, a WAL record's reviews
	// (jsonWriter.raw), and read back as decodeRawReview.
	Raws []extract.RawReview `json:"raws,omitempty"`
}

// snapFile is the JSON payload of one snapshot. ActiveEntry embeds the
// active ontology entry so compaction can retire the WAL segment that
// held the activate record without losing the active version — a
// restored store is on the right ontology before the first replayed
// record applies.
type snapFile struct {
	Schema      string          `json:"schema"`
	LastSeq     uint64          `json:"last_seq"`
	NextGen     uint64          `json:"next_gen"`
	Appends     uint64          `json:"appends"`
	ActiveEntry json.RawMessage `json:"active_entry,omitempty"`
	Activations uint64          `json:"activations,omitempty"`
	Items       []snapItem      `json:"items"`
}

const snapSchema = "osars-store-snapshot/v1"

// decodeSnapshot decodes a snapshot payload into *snap without
// reflection, as json.Unmarshal(payload, snap) decodes it:
// FuzzDecodeSnapshot holds it to the same values, or an error wherever
// Unmarshal errors. On top of the scanner's rules (package jsonscan),
// integers must fit their field's type, created_at and updated_at are
// decoded by time.Time's UnmarshalJSON from the value's bytes,
// active_entry keeps its value's bytes (null included) as
// json.RawMessage does, and only whitespace may follow the snapshot.
func decodeSnapshot(payload []byte, snap *snapFile) error {
	d := jsonscan.NewDecoder(payload)
	d.Space()
	err := d.Object(func(key []byte) error {
		switch {
		case jsonscan.Fold(key, "schema"):
			return d.Str(&snap.Schema)
		case jsonscan.Fold(key, "last_seq"):
			return jsonscan.Uint(d, &snap.LastSeq)
		case jsonscan.Fold(key, "next_gen"):
			return jsonscan.Uint(d, &snap.NextGen)
		case jsonscan.Fold(key, "appends"):
			return jsonscan.Uint(d, &snap.Appends)
		case jsonscan.Fold(key, "active_entry"):
			v, err := d.Value()
			if err == nil {
				snap.ActiveEntry = append(snap.ActiveEntry[:0], v...)
			}
			return err
		case jsonscan.Fold(key, "activations"):
			return jsonscan.Uint(d, &snap.Activations)
		case jsonscan.Fold(key, "items"):
			return jsonscan.Slice(d, &snap.Items, func(it *snapItem) error { return decodeSnapItem(d, it) })
		}
		return d.Skip()
	})
	if err != nil {
		return err
	}
	return d.End()
}

// decodeSnapItem and the functions after it are decodeSnapshot's field
// switches, one per type.
func decodeSnapItem(d *jsonscan.Decoder, it *snapItem) error {
	return d.Object(func(key []byte) error {
		switch {
		case jsonscan.Fold(key, "id"):
			return d.Str(&it.ID)
		case jsonscan.Fold(key, "gen"):
			return jsonscan.Uint(d, &it.Gen)
		case jsonscan.Fold(key, "num_sentences"):
			return jsonscan.Int(d, &it.NumSentences)
		case jsonscan.Fold(key, "num_pairs"):
			return jsonscan.Int(d, &it.NumPairs)
		case jsonscan.Fold(key, "created_at"):
			return decodeTime(d, &it.CreatedAt)
		case jsonscan.Fold(key, "updated_at"):
			return decodeTime(d, &it.UpdatedAt)
		case jsonscan.Fold(key, "item"):
			if d.Literal("null") {
				it.Item = nil
				return nil
			}
			if it.Item == nil {
				it.Item = new(model.Item)
			}
			return decodeItem(d, it.Item)
		case jsonscan.Fold(key, "ann_ver"):
			return d.Str(&it.AnnVer)
		case jsonscan.Fold(key, "raws"):
			return jsonscan.Slice(d, &it.Raws, func(r *extract.RawReview) error { return decodeRawReview(d, r) })
		}
		return d.Skip()
	})
}

// decodeTime hands a value's bytes to time.Time's UnmarshalJSON, as
// encoding/json does.
func decodeTime(d *jsonscan.Decoder, t *time.Time) error {
	v, err := d.Value()
	if err != nil {
		return err
	}
	return t.UnmarshalJSON(v)
}

func decodeItem(d *jsonscan.Decoder, it *model.Item) error {
	return d.Object(func(key []byte) error {
		switch {
		case jsonscan.Fold(key, "id"):
			return d.Str(&it.ID)
		case jsonscan.Fold(key, "name"):
			return d.Str(&it.Name)
		case jsonscan.Fold(key, "reviews"):
			return jsonscan.Slice(d, &it.Reviews, func(r *model.Review) error { return decodeReview(d, r) })
		}
		return d.Skip()
	})
}

func decodeReview(d *jsonscan.Decoder, r *model.Review) error {
	return d.Object(func(key []byte) error {
		switch {
		case jsonscan.Fold(key, "id"):
			return d.Str(&r.ID)
		case jsonscan.Fold(key, "rating"):
			return d.Float(&r.Rating)
		case jsonscan.Fold(key, "sentences"):
			return jsonscan.Slice(d, &r.Sentences, func(s *model.Sentence) error { return decodeSentence(d, s) })
		}
		return d.Skip()
	})
}

func decodeSentence(d *jsonscan.Decoder, s *model.Sentence) error {
	return d.Object(func(key []byte) error {
		switch {
		case jsonscan.Fold(key, "text"):
			return d.Str(&s.Text)
		case jsonscan.Fold(key, "pairs"):
			return jsonscan.Slice(d, &s.Pairs, func(p *model.Pair) error { return decodePair(d, p) })
		}
		return d.Skip()
	})
}

func decodePair(d *jsonscan.Decoder, p *model.Pair) error {
	return d.Object(func(key []byte) error {
		switch {
		case jsonscan.Fold(key, "concept"):
			return jsonscan.Int(d, &p.Concept)
		case jsonscan.Fold(key, "sentiment"):
			return d.Float(&p.Sentiment)
		}
		return d.Skip()
	})
}

func decodeRawReview(d *jsonscan.Decoder, r *extract.RawReview) error {
	return d.Object(func(key []byte) error {
		switch {
		case jsonscan.Fold(key, "id"):
			return d.Str(&r.ID)
		case jsonscan.Fold(key, "text"):
			return d.Str(&r.Text)
		case jsonscan.Fold(key, "rating"):
			return d.Float(&r.Rating)
		}
		return d.Skip()
	})
}

// snapChunk is how many bytes writeSnapshot gathers before it hands
// them to its writer.
const snapChunk = 256 << 10

// writeSnapshot writes snap to w without reflection, as
// json.Marshal(snap) writes it with each item's raws in their logged
// form (jsonWriter.raw), in chunks of about snapChunk bytes.
// FuzzEncodeSnapshot and TestSnapshotWriterMatchesMarshal hold it to
// Marshal's bytes, or an error wherever Marshal errors. Its field
// writers, one per type, keep Marshal's rules: fields in struct order,
// omitempty fields left out when empty, a nil slice null and an empty
// one [], strings and floats by jsonscan's appenders (a non-finite
// float is an error), timestamps by time.Time's MarshalJSON, and
// active_entry as json.Marshal writes the json.RawMessage alone.
func writeSnapshot(w io.Writer, snap *snapFile) error {
	sw := &snapWriter{w: w}
	b := make([]byte, 0, snapChunk+snapChunk/4)
	b = jsonscan.AppendString(append(b, `{"schema":`...), snap.Schema)
	b = strconv.AppendUint(append(b, `,"last_seq":`...), snap.LastSeq, 10)
	b = strconv.AppendUint(append(b, `,"next_gen":`...), snap.NextGen, 10)
	b = strconv.AppendUint(append(b, `,"appends":`...), snap.Appends, 10)
	if len(snap.ActiveEntry) > 0 {
		b = sw.rawJSON(append(b, `,"active_entry":`...), snap.ActiveEntry)
	}
	if snap.Activations != 0 {
		b = strconv.AppendUint(append(b, `,"activations":`...), snap.Activations, 10)
	}
	b = append(b, `,"items":`...)
	if snap.Items == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range snap.Items {
			if sw.err != nil {
				return sw.err
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = sw.item(b, &snap.Items[i])
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	if sw.err == nil {
		_, sw.err = w.Write(b)
	}
	return sw.err
}

// snapWriter is writeSnapshot's state: the field writers, and the
// writer it spills its buffer to.
type snapWriter struct {
	jsonWriter
	w io.Writer
}

// spill hands b to the writer once it holds snapChunk bytes, and
// returns the emptied buffer.
func (w *snapWriter) spill(b []byte) []byte {
	if len(b) < snapChunk {
		return b
	}
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
	return b[:0]
}

func (w *snapWriter) item(b []byte, it *snapItem) []byte {
	b = jsonscan.AppendString(append(b, `{"id":`...), it.ID)
	b = strconv.AppendUint(append(b, `,"gen":`...), it.Gen, 10)
	b = strconv.AppendInt(append(b, `,"num_sentences":`...), int64(it.NumSentences), 10)
	b = strconv.AppendInt(append(b, `,"num_pairs":`...), int64(it.NumPairs), 10)
	b = w.time(append(b, `,"created_at":`...), it.CreatedAt)
	b = w.time(append(b, `,"updated_at":`...), it.UpdatedAt)
	b = append(b, `,"item":`...)
	if it.Item == nil {
		b = append(b, "null"...)
	} else {
		b = jsonscan.AppendString(append(b, `{"id":`...), it.Item.ID)
		b = jsonscan.AppendString(append(b, `,"name":`...), it.Item.Name)
		b = append(b, `,"reviews":`...)
		if reviews := it.Item.Reviews; reviews == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for i := range reviews {
				if i > 0 {
					b = append(b, ',')
				}
				b = w.spill(w.review(b, &reviews[i]))
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	if it.AnnVer != "" {
		b = jsonscan.AppendString(append(b, `,"ann_ver":`...), it.AnnVer)
	}
	if len(it.Raws) > 0 {
		b = append(b, `,"raws":[`...)
		for i := range it.Raws {
			if i > 0 {
				b = append(b, ',')
			}
			b = w.spill(w.raw(b, &it.Raws[i]))
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

func (w *snapWriter) review(b []byte, r *model.Review) []byte {
	b = jsonscan.AppendString(append(b, `{"id":`...), r.ID)
	b = w.float(append(b, `,"rating":`...), r.Rating)
	if r.Sentences == nil {
		return append(b, `,"sentences":null}`...)
	}
	b = append(b, `,"sentences":[`...)
	for i := range r.Sentences {
		s := &r.Sentences[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonscan.AppendString(append(b, `{"text":`...), s.Text)
		if len(s.Pairs) > 0 {
			b = append(b, `,"pairs":[`...)
			for j, p := range s.Pairs {
				if j > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(append(b, `{"concept":`...), int64(p.Concept), 10)
				b = append(w.float(append(b, `,"sentiment":`...), p.Sentiment), '}')
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// jsonWriter holds the field writers the snapshot writer and the WAL
// record writer share. err keeps the first value json.Marshal would
// refuse; what is appended after it is dropped.
type jsonWriter struct {
	err error
}

func (w *jsonWriter) float(b []byte, f float64) []byte {
	if !jsonscan.Finite(f) {
		if w.err == nil {
			w.err = jsonscan.FloatError(f)
		}
		return b
	}
	return jsonscan.AppendFloat(b, f)
}

func (w *jsonWriter) time(b []byte, t time.Time) []byte {
	v, err := t.MarshalJSON()
	if err != nil && w.err == nil {
		w.err = err
	}
	return append(b, v...)
}

// rawJSON appends v as json.Marshal writes a json.RawMessage: compacted,
// with < > & escaped inside its strings, and an error unless it is
// valid JSON.
func (w *jsonWriter) rawJSON(b []byte, v json.RawMessage) []byte {
	out, err := json.Marshal(v)
	if err != nil && w.err == nil {
		w.err = err
	}
	return append(b, out...)
}

// raw appends r in its logged form, as json.Marshal writes a struct of
// r's fields tagged "id", "text" and "rating", each omitempty: each
// present field is written after a comma, and the first comma becomes
// the opening brace.
func (w *jsonWriter) raw(b []byte, r *extract.RawReview) []byte {
	start := len(b)
	if r.ID != "" {
		b = jsonscan.AppendString(append(b, `,"id":`...), r.ID)
	}
	if r.Text != "" {
		b = jsonscan.AppendString(append(b, `,"text":`...), r.Text)
	}
	if r.Rating != 0 {
		b = w.float(append(b, `,"rating":`...), r.Rating)
	}
	if len(b) == start {
		return append(b, "{}"...)
	}
	b[start] = '{'
	return append(b, '}')
}

// RecoveryStats reports what New had to do to restore a durable store.
type RecoveryStats struct {
	// SnapshotSeq is the WAL sequence the loaded snapshot covered
	// (0 when no snapshot existed).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotItems is the number of items restored from the snapshot.
	SnapshotItems int `json:"snapshot_items"`
	// ReplayedRecords is the number of WAL records applied after the
	// snapshot.
	ReplayedRecords int `json:"replayed_records"`
	// TruncatedBytes counts bytes cut from a torn or corrupt WAL tail.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// DroppedSegments counts WAL segment files dropped after a corrupt
	// record.
	DroppedSegments int `json:"dropped_segments"`
	// LastSeq is the newest surviving WAL sequence number.
	LastSeq uint64 `json:"last_seq"`
	// Items is the item count after recovery.
	Items int `json:"items"`
	// Duration is how long recovery took.
	Duration time.Duration `json:"duration_ns"`
}

// persister owns the store's durability state: the WAL, the snapshot
// cadence and the background fsync/snapshot goroutine.
type persister struct {
	s   *Store
	log *wal.Log
	dir string

	policy        FsyncPolicy
	interval      time.Duration
	snapshotEvery int

	// sinceSnap and lastSnapSeq are guarded by s.mu (they are only
	// written inside the store's critical sections).
	sinceSnap   int
	lastSnapSeq uint64

	// q is the group-commit queue for local durable writes
	// (commit.go). Replica stores never stage anything on it — shipped
	// records go through ApplyReplicated instead.
	q commitQueue
	// payloads is leader-only scratch for commitBatch (at most one
	// leader runs at a time, so no lock is needed).
	payloads [][]byte
	// testCommitHook, when set before traffic starts, runs at the
	// commit kill points (commitStage); crash tests use it to copy the
	// data directory mid-commit.
	testCommitHook func(commitStage)
	// testSnapshotWriter, when set before traffic starts, wraps the
	// writer each snapshot payload is streamed to; failure tests use it
	// to cut the write short.
	testSnapshotWriter func(io.Writer) io.Writer

	// snapMu serializes snapshot writes (timer-triggered vs Close).
	snapMu sync.Mutex

	snapCh  chan struct{}
	closeCh chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool

	snapshotsWritten atomic.Uint64
	recovery         RecoveryStats
	// syncErr is the last failed interval fsync. It stays reported: the
	// records it covered may not be durable, and a later fsync that
	// succeeds does not make them so. snapErr is the last snapshot's
	// failure, cleared by the next snapshot that succeeds.
	syncErr, snapErr atomic.Pointer[error]
}

// openPersistence restores state from cfg.DataDir into s and arms the
// durability subsystem. Called by New with a fully constructed
// (empty) store.
func openPersistence(s *Store, cfg Config) error {
	start := time.Now()
	if cfg.Fsync < FsyncAlways || cfg.Fsync > FsyncNever {
		return fmt.Errorf("store: invalid fsync policy %d", cfg.Fsync)
	}
	if cfg.FsyncInterval <= 0 {
		cfg.FsyncInterval = DefaultFsyncInterval
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}

	p := &persister{
		s:             s,
		dir:           cfg.DataDir,
		policy:        cfg.Fsync,
		interval:      cfg.FsyncInterval,
		snapshotEvery: cfg.SnapshotEvery,
		snapCh:        make(chan struct{}, 1),
		closeCh:       make(chan struct{}),
	}
	p.q.init()

	// 1. Latest readable snapshot (corrupt ones are skipped
	// newest-first inside LoadLatestSnapshot).
	payload, snapSeq, ok, err := wal.LoadLatestSnapshot(cfg.DataDir)
	if err != nil {
		return fmt.Errorf("store: load snapshot: %w", err)
	}
	if ok {
		snap, rt, err := loadSnapshot(payload)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.restoreLocked(snap, rt)
		p.recovery.SnapshotSeq = snapSeq
		p.recovery.SnapshotItems = len(snap.Items)
	}

	// 2. Open the WAL (torn-tail truncation happens here).
	log, info, err := wal.Open(cfg.DataDir, wal.Options{
		SegmentBytes: cfg.SegmentBytes,
		FsyncSeconds: s.metrics.walFsync,
		BytesWritten: s.metrics.walBytes,
		Rotations:    s.metrics.walRotations,
	})
	if err != nil {
		return fmt.Errorf("store: open wal: %w", err)
	}
	// The log must continue the snapshot. One that starts past it has
	// lost acknowledged records: every snapshot compacts the log up to
	// itself, so an older snapshot loaded in place of an unreadable
	// newer one no longer has its continuation. Replaying what is left
	// would silently drop the records in between.
	if info.Records > 0 && info.FirstSeq > snapSeq+1 {
		log.Close()
		return fmt.Errorf("store: wal starts at seq %d but the loaded snapshot covers seqs up to %d: records %d–%d are missing",
			info.FirstSeq, snapSeq, snapSeq+1, info.FirstSeq-1)
	}
	p.log = log
	p.recovery.TruncatedBytes = info.TruncatedBytes
	p.recovery.DroppedSegments = info.DroppedSegments
	// If the snapshot is ahead of the log (the WAL was lost or
	// compacted past its end), fast-forward so fresh appends can never
	// mint sequence numbers the snapshot already covers.
	if log.NextSeq() <= snapSeq {
		if err := log.SkipTo(snapSeq + 1); err != nil {
			log.Close()
			return fmt.Errorf("store: wal skip-to: %w", err)
		}
	}

	// 3. Replay the suffix through applyLocked, as the live writes
	// applied it (minus logging — s.persist is still nil here, so
	// nothing re-logs): annotation is deterministic and timestamps come
	// from the record, so the rebuilt state matches the pre-crash store
	// byte for byte. An append is annotated under the runtime active AT
	// THIS POINT of the log: activate records swap it mid-replay exactly
	// as they did in live history.
	replayed := 0
	err = log.Replay(snapSeq, func(seq uint64, payload []byte) error {
		c, err := s.decodeChange(payload)
		if err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		s.mu.Lock()
		s.applyLocked(&c)
		s.mu.Unlock()
		replayed++
		return nil
	})
	if err != nil {
		log.Close()
		return fmt.Errorf("store: wal replay: %w", err)
	}

	s.appliedSeq = log.NextSeq() - 1
	p.lastSnapSeq = snapSeq
	p.sinceSnap = replayed
	p.recovery.ReplayedRecords = replayed
	p.recovery.LastSeq = s.appliedSeq
	p.recovery.Items = len(s.items)
	p.recovery.Duration = time.Since(start)
	s.persist = p

	p.wg.Add(1)
	go p.run()
	return nil
}

// decodeChange decodes a logged record into the change it logged, and
// does the expensive part off-lock, as a live write does: an append's
// reviews are annotated under the active runtime, an activation's
// entry is compiled. WAL replay and ApplyReplicated both read every
// record through it and apply it through applyLocked.
func (s *Store) decodeChange(payload []byte) (change, error) {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return change{}, err
	}
	c := change{op: rec.Op, id: rec.ID, name: rec.Name, ts: rec.TS, raws: rec.Reviews}
	switch rec.Op {
	case opAppend:
		rt := s.rt.Load()
		c.annotated = rt.Pipeline.AnnotateReviews(c.raws, 0)
		c.annVer = rt.Version
	case opActivate:
		rt, err := runtimeFromEntry(rec.Entry)
		if err != nil {
			return change{}, err
		}
		c.rt = rt
	}
	return c, nil
}

// loadSnapshot decodes a snapshot payload, checks its schema and
// compiles its active ontology entry (rt is nil when it has none), so a
// snapshot that cannot be restored is refused before anything changes.
func loadSnapshot(payload []byte) (snap *snapFile, rt *ontoreg.Runtime, err error) {
	snap = new(snapFile)
	if err := decodeSnapshot(payload, snap); err != nil {
		return nil, nil, fmt.Errorf("decode snapshot: %w", err)
	}
	if snap.Schema != snapSchema {
		return nil, nil, fmt.Errorf("unknown snapshot schema %q", snap.Schema)
	}
	if len(snap.ActiveEntry) > 0 {
		if rt, err = runtimeFromEntry(snap.ActiveEntry); err != nil {
			return nil, nil, fmt.Errorf("snapshot active ontology: %w", err)
		}
	}
	return snap, rt, nil
}

// restoreLocked replaces the store's corpus, counters and, when rt is
// not nil, active runtime with a loaded snapshot's. The runtime is
// restored BEFORE the items: annVer defaults, and the annotation of
// the records replayed or shipped after the snapshot, key off it.
// Caller holds s.mu, or owns s.
func (s *Store) restoreLocked(snap *snapFile, rt *ontoreg.Runtime) {
	if rt != nil {
		s.rt.Store(rt)
	}
	s.activations.Store(snap.Activations)
	ver := s.rt.Load().Version
	s.items = make(map[string]*entry, len(snap.Items))
	for i := range snap.Items {
		s.items[snap.Items[i].ID] = entryFromSnap(&snap.Items[i], ver)
	}
	s.nextGen = snap.NextGen
	s.appends.Store(snap.Appends)
	s.cache.PurgeAll()
}

// runtimeFromEntry decodes a canonical ontology entry payload (from an
// activate record or a snapshot's ActiveEntry) and compiles its
// runtime.
func runtimeFromEntry(data []byte) (*ontoreg.Runtime, error) {
	e, err := ontoreg.Decode(data)
	if err != nil {
		return nil, err
	}
	return e.Runtime(), nil
}

// entryFromSnap rebuilds one item entry from its snapshot form. ver is
// the restored active runtime's version, assumed for items from old
// snapshots that predate per-item annotation versions (those snapshots
// also predate activation records, so the config runtime that wrote
// them is the one restoring them). An item from a snapshot that
// predates raw-review retention gets its raws reconstructed here, so
// every entry's raws cover its reviews.
func entryFromSnap(it *snapItem, ver string) *entry {
	e := &entry{
		item:         it.Item,
		gen:          it.Gen,
		numSentences: it.NumSentences,
		numPairs:     it.NumPairs,
		createdAt:    it.CreatedAt,
		updatedAt:    it.UpdatedAt,
		annVer:       it.AnnVer,
	}
	if e.annVer == "" {
		e.annVer = ver
	}
	if len(it.Raws) > 0 {
		e.raws = it.Raws
	}
	if it.Item != nil {
		if e.raws == nil {
			e.raws = reconstructRaws(it.Item.Reviews)
		}
		shareSentenceTexts(it.Item.Reviews, e.raws)
		e.publish(it.Item.ID, it.Item.Name, it.Item.Reviews)
	}
	return e
}

// shareSentenceTexts points each sentence's text into its review's raw
// text, where live annotation sliced it from: a snapshot holds the two
// apart, and decoding them separately would keep every sentence's text
// twice. The sentences of a review whose raw has another ID, and a
// sentence not found in the raw text after the previous one, keep
// their own copies.
func shareSentenceTexts(reviews []model.Review, raws []extract.RawReview) {
	for i := range reviews {
		if i >= len(raws) || raws[i].ID != reviews[i].ID {
			continue
		}
		raw, at := raws[i].Text, 0
		for si := range reviews[i].Sentences {
			s := &reviews[i].Sentences[si]
			off := strings.Index(raw[at:], s.Text)
			if off < 0 {
				continue
			}
			at += off
			s.Text = raw[at : at+len(s.Text)]
			at += len(s.Text)
		}
	}
}

// noteLoggedLocked drives the snapshot cadence after a record reached
// the log (group commit or replica apply). Caller holds s.mu.
func (p *persister) noteLoggedLocked() {
	p.sinceSnap++
	if p.snapshotEvery > 0 && p.sinceSnap >= p.snapshotEvery {
		p.sinceSnap = 0
		select {
		case p.snapCh <- struct{}{}:
		default:
		}
	}
}

// run is the background goroutine: interval fsync and triggered
// snapshots.
func (p *persister) run() {
	defer p.wg.Done()
	var tick <-chan time.Time
	if p.policy == FsyncInterval {
		t := time.NewTicker(p.interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-p.closeCh:
			return
		case <-tick:
			if err := p.log.Sync(); err != nil {
				p.syncErr.Store(&err)
			}
		case <-p.snapCh:
			p.snapshot()
		}
	}
}

// snapshot writes a snapshot (snapshotLocked) and keeps its
// failure for PersistErr until a snapshot succeeds, background or
// forced.
func (p *persister) snapshot() error {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	err := p.snapshotLocked()
	if err != nil {
		p.snapErr.Store(&err)
	} else {
		p.snapErr.Store(nil)
	}
	return err
}

// snapshotLocked serializes a consistent view of the store, writes it
// atomically, and compacts the WAL past it. Item values are immutable
// (AppendReviews publishes fresh *model.Item values over slots no
// later append writes), so the lock is held only long enough to copy
// pointers and counters — the expensive JSON encode runs concurrently
// with live traffic. Caller holds snapMu.
func (p *persister) snapshotLocked() error {
	s := p.s
	snapStart := time.Now()

	s.mu.RLock()
	seq := s.appliedSeq
	if seq == p.lastSnapSeq {
		s.mu.RUnlock()
		return nil // nothing new since the last snapshot
	}
	// The runtime is read under the same lock as appliedSeq: swaps
	// happen under s.mu, so the snapshot's ActiveEntry is exactly the
	// runtime active at its LastSeq cut.
	rt := s.rt.Load()
	snap := snapFile{
		Schema:      snapSchema,
		LastSeq:     seq,
		NextGen:     s.nextGen,
		Appends:     s.appends.Load(),
		ActiveEntry: rt.Payload,
		Activations: s.activations.Load(),
		Items:       make([]snapItem, 0, len(s.items)),
	}
	for id, e := range s.items {
		snap.Items = append(snap.Items, snapItem{
			ID:           id,
			Gen:          e.gen,
			NumSentences: e.numSentences,
			NumPairs:     e.numPairs,
			CreatedAt:    e.createdAt,
			UpdatedAt:    e.updatedAt,
			Item:         e.item,
			AnnVer:       e.annVer,
			Raws:         e.raws,
		})
	}
	s.mu.RUnlock()
	sort.Slice(snap.Items, func(i, j int) bool { return snap.Items[i].ID < snap.Items[j].ID })

	_, err := wal.WriteSnapshotStream(p.dir, seq, func(w io.Writer) error {
		if wrap := p.testSnapshotWriter; wrap != nil {
			w = wrap(w)
		}
		return writeSnapshot(w, &snap)
	})
	if err != nil {
		return err
	}
	// Rotate so every record ≤ seq lives in a closed segment, then
	// retire the segments the snapshot fully covers and prune old
	// snapshot generations.
	if err := p.log.Rotate(); err != nil {
		return err
	}
	if _, err := p.log.RemoveObsolete(seq); err != nil {
		return err
	}
	if _, err := wal.PruneSnapshots(p.dir, snapshotsToKeep); err != nil {
		return err
	}

	s.mu.Lock()
	p.lastSnapSeq = seq
	s.mu.Unlock()
	p.snapshotsWritten.Add(1)
	s.metrics.snapshotSeconds.ObserveSince(snapStart)
	return nil
}

// Snapshot forces a snapshot + WAL compaction now (outside the
// automatic cadence). Safe to call concurrently with traffic.
func (s *Store) Snapshot() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.snapshot()
}

// Sync forces everything logged so far to stable storage, regardless
// of the fsync policy.
func (s *Store) Sync() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.log.Sync()
}

// Recovery returns what New restored from disk; ok is false for
// in-memory stores.
func (s *Store) Recovery() (RecoveryStats, bool) {
	if s.persist == nil {
		return RecoveryStats{}, false
	}
	return s.persist.recovery, true
}

// PersistErr returns the last failed background fsync, which stays
// reported (the records it covered may not be durable), or else the
// last snapshot's failure until a snapshot succeeds. Write failures
// surface on AppendReviews and Delete directly.
func (s *Store) PersistErr() error {
	if s.persist == nil {
		return nil
	}
	if err := s.persist.syncErr.Load(); err != nil {
		return *err
	}
	if err := s.persist.snapErr.Load(); err != nil {
		return *err
	}
	return nil
}

// Close drains the commit queue, flushes the WAL, writes a final
// snapshot (if anything changed since the last one) and releases the
// log. The store must not be used afterwards; Close on an in-memory
// store is a no-op. Safe to call more than once.
func (s *Store) Close() error {
	p := s.persist
	if p == nil || !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Let every staged write commit (and refuse new ones) before the
	// log is flushed and closed.
	p.q.close()
	close(p.closeCh)
	p.wg.Wait()
	var firstErr error
	if err := p.snapshot(); err != nil {
		firstErr = err
	}
	if err := p.log.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
