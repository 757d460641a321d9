package store

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"testing"

	"osars/internal/ontoreg"
	"osars/internal/wal"
)

// frame is one logged record, as ApplyReplicated takes it.
type frame struct {
	seq     uint64
	payload []byte
}

// walFrames returns every record s has logged after seq after, in
// order.
func walFrames(t *testing.T, s *Store, after uint64) []frame {
	t.Helper()
	tail, err := s.ReplTail(after)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	var out []frame
	for {
		frames, count, _, err := tail.Next(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if count == 0 {
			return out
		}
		fr := wal.NewFrameReader(bytes.NewReader(frames))
		for {
			seq, payload, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, frame{seq, bytes.Clone(payload)})
		}
	}
}

// applyFrames feeds frames to a replica through ApplyReplicated.
func applyFrames(t *testing.T, r *Store, frames []frame) {
	t.Helper()
	for _, f := range frames {
		if err := r.ApplyReplicated(f.seq, f.payload); err != nil {
			t.Fatalf("apply seq %d: %v", f.seq, err)
		}
	}
}

// applyView is what TestOneApplyPath compares across stores: the
// counters an apply moves and the applied sequence, read before
// observe's summaries re-annotate the stale items, then observe.
func applyView(t *testing.T, s *Store) string {
	t.Helper()
	st := s.Stats()
	return fmt.Sprintf("items=%d appends=%d activations=%d version=%s stale=%d seq=%d\n%s",
		st.Items, st.Appends, st.OntologyActivations, st.ActiveOntologyVersion, st.StaleItems, s.AppliedSeq(), observe(t, s))
}

// applyScript is TestOneApplyPath's script of live writes, which logs
// applyScriptRecords records. mid, when not nil, runs after the
// activation.
func applyScript(t *testing.T, s *Store, v2 *ontoreg.Runtime, mid func()) {
	t.Helper()
	steps := []func() error{
		func() error { _, err := s.AppendReviews("a", "Acme", phoneReviews[:2]); return err },
		func() error { _, err := s.AppendReviews("b", "Bolt", phoneReviews[2:3]); return err },
		func() error { _, err := s.AppendReviews("a", "", nil); return err },       // no-op: not logged
		func() error { _, err := s.AppendReviews("a", "Acme 2", nil); return err }, // rename only
		func() error { // a missing item: not logged
			if existed, err := s.Delete("missing"); err != nil || existed {
				return fmt.Errorf("delete missing: existed %v, err %v", existed, err)
			}
			return nil
		},
		func() error {
			if existed, err := s.Delete("b"); err != nil || !existed {
				return fmt.Errorf("delete b: existed %v, err %v", existed, err)
			}
			return nil
		},
		func() error { _, err := s.AppendReviews("b", "Bolt again", phoneReviews[3:]); return err },
		func() error { return s.ActivateOntology(v2) },
		func() error {
			if mid != nil {
				mid()
			}
			return nil
		},
		// Annotated under v2 onto a corpus annotated under v1: mixed.
		func() error { _, err := s.AppendReviews("a", "", gradedPhoneReviews(3)); return err },
		func() error { _, err := s.AppendReviews("c", "Cell", phoneReviews[1:3]); return err },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

const applyScriptRecords = 8

// TestOneApplyPath runs one script of live writes on a durable primary
// and checks that every other way a store reaches that state applies
// it identically: the primary's reopen (snapshot then WAL replay), an
// in-memory and a durable replica fed every logged frame, and replicas
// bootstrapped by InstallSnapshot from a mid-script snapshot and fed
// the rest. An in-memory primary running the same script matches it
// too, timestamps and the log position aside.
func TestOneApplyPath(t *testing.T) {
	v1, v2 := phoneRuntime(t, 0.5), phoneRuntime(t, 0.9)
	pdir := t.TempDir()
	p, err := New(Config{Runtime: v1, DataDir: pdir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var frames []frame
	var snapSeq uint64
	var snapPayload []byte
	applyScript(t, p, v2, func() {
		frames = walFrames(t, p, 0)
		if err := p.Snapshot(); err != nil {
			t.Fatal(err)
		}
		raw, seq, ok, err := p.ReplSnapshotRaw()
		if err != nil || !ok {
			t.Fatalf("mid-script snapshot: ok %v, err %v", ok, err)
		}
		if snapPayload, err = wal.DecodeSnapshot(raw); err != nil {
			t.Fatal(err)
		}
		snapSeq = seq
	})
	frames = append(frames, walFrames(t, p, snapSeq)...)
	if got := p.AppliedSeq(); got != applyScriptRecords || len(frames) != applyScriptRecords {
		t.Fatalf("primary logged %d records (%d frames), want %d", got, len(frames), applyScriptRecords)
	}
	// a is mixed and b annotated under v1, so both are stale.
	if st := p.Stats(); st.Items != 3 || st.Appends != 6 || st.OntologyActivations != 1 || st.StaleItems != 2 {
		t.Fatalf("primary after the script: %+v", st)
	}
	// A crash image: the reopen restores the snapshot and replays the
	// records after it.
	cdir := t.TempDir()
	copyDir(t, pdir, cdir)
	want := applyView(t, p)

	reopened := openDurable(t, Config{Runtime: v1, DataDir: cdir, SnapshotEvery: -1})
	defer reopened.Close()
	if rec, _ := reopened.Recovery(); rec.SnapshotSeq != snapSeq || rec.ReplayedRecords != int(applyScriptRecords-snapSeq) {
		t.Fatalf("reopen recovery = %+v, want snapshot seq %d", rec, snapSeq)
	}
	stores := map[string]*Store{"reopened primary": reopened}

	for _, durable := range []bool{false, true} {
		cfg := Config{Runtime: v1, Replica: true, SnapshotEvery: -1}
		if durable {
			cfg.DataDir = t.TempDir()
		}
		streamed := openDurable(t, cfg)
		defer streamed.Close()
		applyFrames(t, streamed, frames)
		stores[fmt.Sprintf("streamed replica (durable %v)", durable)] = streamed

		if durable {
			cfg.DataDir = t.TempDir()
		}
		boot := openDurable(t, cfg)
		defer boot.Close()
		if err := boot.InstallSnapshot(snapSeq, snapPayload); err != nil {
			t.Fatal(err)
		}
		applyFrames(t, boot, frames[snapSeq:])
		stores[fmt.Sprintf("bootstrapped replica (durable %v)", durable)] = boot
	}
	for name, s := range stores {
		if got := applyView(t, s); got != want {
			t.Fatalf("%s diverged from the primary:\ngot:  %s\nwant: %s", name, got, want)
		}
	}

	mem := openDurable(t, Config{Runtime: v1})
	applyScript(t, mem, v2, nil)
	mask := regexp.MustCompile(`"(created_at|updated_at)":"[^"]*"|seq=\d+`)
	if got, want := mask.ReplaceAllString(applyView(t, mem), "-"), mask.ReplaceAllString(want, "-"); got != want {
		t.Fatalf("in-memory primary diverged from the durable one:\ngot:  %s\nwant: %s", got, want)
	}
}
