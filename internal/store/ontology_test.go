package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontoreg"
	"osars/internal/wal"
)

// phoneRuntime compiles a registry entry over the cell-phone ontology;
// eps differentiates versions (same DAG, different threshold → new
// content hash).
func phoneRuntime(t *testing.T, eps float64) *ontoreg.Runtime {
	t.Helper()
	e, err := ontoreg.NewEntry("phone", dataset.CellPhoneOntology(), nil, eps)
	if err != nil {
		t.Fatal(err)
	}
	return e.Runtime()
}

// TestCacheKeyIncludesOntologyVersion pins the swap-coherence
// invariant: summary-cache keys carry the ontology version, so a
// summary solved under one ontology can never answer a request made
// under another.
func TestCacheKeyIncludesOntologyVersion(t *testing.T) {
	// The structural half: two keys identical except for the version
	// must be distinct cache keys.
	k1 := cacheKey{id: "p1", gen: 1, ver: "aaaa", k: 3, g: model.GranularitySentences, m: MethodGreedy}
	k2 := k1
	k2.ver = "bbbb"
	if k1 == k2 {
		t.Fatal("cache keys with different ontology versions compare equal")
	}

	// The behavioral half: a cached summary from before a swap is never
	// served after it.
	v1 := phoneRuntime(t, 0.5)
	v2 := phoneRuntime(t, 0.9)
	s, err := New(Config{Runtime: v1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReviews("p1", "Acme Phone", phoneReviews); err != nil {
		t.Fatal(err)
	}
	sum1, cached, err := s.Summary("p1", 3, model.GranularitySentences, MethodGreedy)
	if err != nil || cached {
		t.Fatalf("first solve: cached=%v err=%v", cached, err)
	}
	if sum1.OntologyVersion != v1.Version {
		t.Fatalf("summary version = %q, want %q", sum1.OntologyVersion, v1.Version)
	}
	if _, cached, _ := s.Summary("p1", 3, model.GranularitySentences, MethodGreedy); !cached {
		t.Fatal("repeat under the same version was not a cache hit")
	}

	if err := s.ActivateOntology(v2); err != nil {
		t.Fatal(err)
	}
	sum2, cached, err := s.Summary("p1", 3, model.GranularitySentences, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("post-swap summarize answered from the pre-swap cache")
	}
	if sum2.OntologyVersion != v2.Version {
		t.Fatalf("post-swap summary carries version %q, want %q", sum2.OntologyVersion, v2.Version)
	}

	// Swapping back finds the v1 summaries still isolated under their
	// own key — a hit, and it carries the v1 version.
	if err := s.ActivateOntology(v1); err != nil {
		t.Fatal(err)
	}
	sum3, cached, err := s.Summary("p1", 3, model.GranularitySentences, MethodGreedy)
	if err != nil || !cached {
		t.Fatalf("swap-back: cached=%v err=%v", cached, err)
	}
	if sum3.OntologyVersion != v1.Version {
		t.Fatalf("swap-back summary carries version %q, want %q", sum3.OntologyVersion, v1.Version)
	}
}

// TestLazyReannotation: items annotated under the old runtime are
// counted stale after a swap and re-annotate on their next summarize —
// not during activation.
func TestLazyReannotation(t *testing.T) {
	v1 := phoneRuntime(t, 0.5)
	v2 := phoneRuntime(t, 0.9)
	s, err := New(Config{Runtime: v1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"p1", "p2"} {
		if _, err := s.AppendReviews(id, "Phone "+id, phoneReviews); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.StaleItems != 0 || st.ActiveOntologyVersion != v1.Version {
		t.Fatalf("pre-swap stats = %+v", st)
	}

	if err := s.ActivateOntology(v2); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.StaleItems != 2 || st.Reannotations != 0 {
		t.Fatalf("post-swap stats: stale=%d reann=%d, want 2/0 (re-annotation must be lazy)",
			st.StaleItems, st.Reannotations)
	}
	if st.ActiveOntology != "phone" || st.ActiveOntologyVersion != v2.Version || st.OntologyActivations != 1 {
		t.Fatalf("post-swap identity = %+v", st)
	}

	// Summarizing p1 re-annotates p1 only.
	if _, _, err := s.Summary("p1", 3, model.GranularitySentences, MethodGreedy); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.StaleItems != 1 || st.Reannotations != 1 {
		t.Fatalf("after one solve: stale=%d reann=%d, want 1/1", st.StaleItems, st.Reannotations)
	}
	// The re-annotated corpus must still hold every review.
	item, _, ok := s.Item("p1")
	if !ok || len(item.Reviews) != len(phoneReviews) {
		t.Fatalf("re-annotated item = %v", item)
	}

	// Appending to the still-stale p2 marks it mixed; the next solve
	// re-annotates the whole corpus under v2.
	if _, err := s.AppendReviews("p2", "", []extract.RawReview{
		{ID: "r9", Text: "The battery drains overnight.", Rating: 0.1},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Summary("p2", 3, model.GranularitySentences, MethodGreedy); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.StaleItems != 0 {
		t.Fatalf("after both solves: stale=%d, want 0", st.StaleItems)
	}
	if item, _, _ := s.Item("p2"); len(item.Reviews) != len(phoneReviews)+1 {
		t.Fatalf("mixed item lost reviews: %d", len(item.Reviews))
	}
}

// TestActivationIdempotent: re-activating the active version is a
// no-op (no WAL record, no counter bump).
func TestActivationIdempotent(t *testing.T) {
	v1 := phoneRuntime(t, 0.5)
	s, err := New(Config{Runtime: v1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateOntology(v1); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.OntologyActivations != 0 {
		t.Fatalf("idempotent re-activation bumped the counter: %+v", st)
	}
}

// TestDurableActivationSurvivesRestart: the active version is
// WAL-logged, so a reopened store serves under it byte-identically —
// both straight from the log and after a snapshot compacted the log
// away.
func TestDurableActivationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	v1 := phoneRuntime(t, 0.5)
	v2 := phoneRuntime(t, 0.9)

	open := func() *Store {
		t.Helper()
		s, err := New(Config{Runtime: v1, DataDir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := open()
	if _, err := s.AppendReviews("p1", "Acme Phone", phoneReviews); err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateOntology(v2); err != nil {
		t.Fatal(err)
	}
	// Append landing after the swap is annotated under v2.
	if _, err := s.AppendReviews("p2", "Other Phone", phoneReviews[:2]); err != nil {
		t.Fatal(err)
	}
	// Hard stop: no Close, no final snapshot. FsyncAlways (the default)
	// made every acknowledged record durable, so recovery replays the
	// WAL — including the activation record, in order: p1 (appended
	// before the swap) recovers stale and p2 fresh.
	s = open()
	rt := s.ActiveRuntime()
	if rt.Name != "phone" || rt.Version != v2.Version {
		t.Fatalf("recovered runtime = %s@%s, want phone@%s", rt.Name, rt.Version, v2.Version)
	}
	if string(rt.Payload) != string(v2.Payload) {
		t.Fatal("recovered entry payload is not byte-identical")
	}
	if st := s.Stats(); st.StaleItems != 1 {
		t.Fatalf("recovered stale items = %d, want 1 (p1 pre-swap)", st.StaleItems)
	}
	sum, _, err := s.Summary("p1", 3, model.GranularitySentences, MethodGreedy)
	if err != nil || sum.OntologyVersion != v2.Version {
		t.Fatalf("recovered summary = %v (err=%v), want version %s", sum, err, v2.Version)
	}

	// Close with a snapshot: the active entry now lives in the snapshot,
	// not the (compacted) WAL.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	defer s.Close()
	rt = s.ActiveRuntime()
	if rt.Version != v2.Version {
		t.Fatalf("snapshot-recovered runtime = %s@%s, want %s", rt.Name, rt.Version, v2.Version)
	}
	if st := s.Stats(); st.Items != 2 {
		t.Fatalf("snapshot-recovered items = %d, want 2", st.Items)
	}
}

// TestDurableActivationRequiresPayload: a config-born runtime (custom
// estimator, no serializable entry) can serve but not be durably
// activated.
func TestDurableActivationRequiresPayload(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Runtime: phoneRuntime(t, 0.5), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ont := dataset.CellPhoneOntology()
	bare := ontoreg.ConfigRuntime(
		model.Metric{Ont: ont, Epsilon: 0.5},
		extract.NewPipeline(extract.NewMatcher(ont), nil),
	)
	err = s.ActivateOntology(bare)
	if err == nil || !strings.Contains(err.Error(), "payload") {
		t.Fatalf("durable activation of a payload-less runtime: err=%v", err)
	}
}

// TestReplicaRejectsLocalActivation: the active version reaches
// replicas through the replicated WAL stream, never by local mutation.
func TestReplicaRejectsLocalActivation(t *testing.T) {
	s, err := New(Config{Runtime: phoneRuntime(t, 0.5), DataDir: t.TempDir(), Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ActivateOntology(phoneRuntime(t, 0.9)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica local activation: err=%v, want ErrReadOnly", err)
	}
}

// TestLegacySnapshotRawsReconstructed restores a snapshot written
// before raw-review retention (no raws, no ann_ver, no active entry),
// at boot and through InstallSnapshot. Every restored entry's raws
// cover its reviews, reconstructed from its sentences, so an append and
// then an ontology swap re-annotate the whole corpus: each summary
// matches a cold solve of the reconstructed and appended raws under
// the new runtime.
func TestLegacySnapshotRawsReconstructed(t *testing.T) {
	v1, v2 := phoneRuntime(t, 0.5), phoneRuntime(t, 0.9)
	p := openDurable(t, Config{Runtime: v1, DataDir: t.TempDir()})
	defer p.Close()
	corpus := map[string][]extract.RawReview{"p1": gradedPhoneReviews(6), "p2": phoneReviews}
	for _, id := range []string{"p1", "p2"} {
		if _, err := p.AppendReviews(id, "Phone "+id, corpus[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	raw, seq, _, err := p.ReplSnapshotRaw()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wal.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapFile
	if err := decodeSnapshot(payload, &snap); err != nil {
		t.Fatal(err)
	}
	snap.ActiveEntry = nil
	want := make(map[string][]extract.RawReview)
	for i := range snap.Items {
		it := &snap.Items[i]
		it.Raws, it.AnnVer = nil, ""
		want[it.ID] = reconstructRaws(it.Item.Reviews)
	}
	var legacy bytes.Buffer
	if err := writeSnapshot(&legacy, &snap); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(legacy.Bytes(), []byte(`"raws"`)) {
		t.Fatal("the legacy snapshot still holds raws")
	}
	more := gradedPhoneReviews(9)[6:]
	want["p1"] = append(want["p1"], more...)

	requireRawsCover := func(t *testing.T, s *Store, when string) {
		t.Helper()
		for _, id := range []string{"p1", "p2"} {
			item, raws := entryView(s, id)
			if len(raws) != len(item.Reviews) {
				t.Fatalf("%s: %s holds %d raws for %d reviews", when, id, len(raws), len(item.Reviews))
			}
		}
	}
	for _, boot := range []bool{true, false} {
		t.Run(fmt.Sprintf("boot=%v", boot), func(t *testing.T) {
			var s *Store
			// append and activate are the writes the test makes: live
			// writes at boot, shipped records on the replica.
			var appendMore, activate func() error
			if boot {
				dir := t.TempDir()
				if _, err := wal.WriteSnapshot(dir, seq, legacy.Bytes()); err != nil {
					t.Fatal(err)
				}
				s = openDurable(t, Config{Runtime: v1, DataDir: dir})
				appendMore = func() error { _, err := s.AppendReviews("p1", "", more); return err }
				activate = func() error { return s.ActivateOntology(v2) }
			} else {
				s = openDurable(t, Config{Runtime: v1, Replica: true})
				if err := s.InstallSnapshot(seq, legacy.Bytes()); err != nil {
					t.Fatal(err)
				}
				appendMore = func() error {
					return s.ApplyReplicated(seq+1, encodeRecord(t, opAppend, "p1", "", loggedRaws(more)))
				}
				activate = func() error {
					rec, err := json.Marshal(loggedRecord{Op: opActivate, TS: time.Now(), Entry: v2.Payload})
					if err != nil {
						return err
					}
					return s.ApplyReplicated(seq+2, rec)
				}
			}
			defer s.Close()
			requireRawsCover(t, s, "restored")
			if err := appendMore(); err != nil {
				t.Fatal(err)
			}
			requireRawsCover(t, s, "after an append")
			if err := activate(); err != nil {
				t.Fatal(err)
			}
			for id, raws := range want {
				item := &model.Item{ID: id, Name: "Phone " + id, Reviews: v2.Pipeline.AnnotateReviews(raws, 0)}
				for _, g := range []model.Granularity{model.GranularityPairs, model.GranularitySentences, model.GranularityReviews} {
					for _, k := range []int{2, 3} {
						sum, _, err := s.Summary(id, k, g, MethodGreedy)
						if err != nil {
							t.Fatal(err)
						}
						requireSameSummary(t, sum, coldSummary(v2, item, k, g), fmt.Sprintf("%s/%v/k=%d", id, g, k))
					}
				}
			}
			requireRawsCover(t, s, "after the swap")
		})
	}
}
