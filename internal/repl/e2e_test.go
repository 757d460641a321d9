// End-to-end replication tests: a primary serving real HTTP ingests
// under concurrent load while a replica tails its WAL streams; after
// the load drains the replica must answer the read API byte-identical
// to the primary. Also covered: replica restart mid-stream (resume
// from the last locally durable sequence), snapshot bootstrap after
// the primary compacted past the follower, write rejection on the
// replica, and a kill/restart chaos round for both roles. Run with
// -race.
package repl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osars"
	"osars/internal/dataset"
	"osars/internal/repl"
	"osars/internal/server"
)

func newSummarizer(t *testing.T) *osars.Summarizer {
	t.Helper()
	sum, err := osars.New(osars.Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// primaryNode is a primary store + HTTP server with the replication
// endpoints mounted.
type primaryNode struct {
	st  osars.Store
	srv *server.Server
	src *repl.Source
}

func startPrimary(t *testing.T, dir string, opts osars.StoreOptions) *primaryNode {
	t.Helper()
	opts.DataDir = dir
	sum := newSummarizer(t)
	st, err := sum.OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithStore(sum, st)
	ph := repl.NewPrimaryHandler()
	srv.HandleRepl(ph)
	src, err := repl.NewSource(st)
	if err != nil {
		t.Fatal(err)
	}
	ph.Attach(src)
	return &primaryNode{st: st, srv: srv, src: src}
}

// replicaNode is a replica store + follower + HTTP server.
type replicaNode struct {
	st       osars.Store
	srv      *server.Server
	tgt      *repl.Target
	follower *repl.Follower
	hs       *httptest.Server
}

func startReplica(t *testing.T, dir string, opts osars.StoreOptions, primaryURL string) *replicaNode {
	t.Helper()
	opts.DataDir = dir
	opts.Replica = true
	sum := newSummarizer(t)
	st, err := sum.OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewWithStore(sum, st)
	srv.SetPrimary(primaryURL)
	tgt, err := repl.NewTarget(st)
	if err != nil {
		t.Fatal(err)
	}
	f, err := repl.StartFollower(repl.FollowerConfig{
		PrimaryURL: primaryURL,
		Target:     tgt,
		Wait:       100 * time.Millisecond, // fast reconnect cycles in tests
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rh := repl.NewReplicaHandler()
	rh.Attach(f, primaryURL)
	srv.HandleRepl(rh)
	return &replicaNode{st: st, srv: srv, tgt: tgt, follower: f, hs: httptest.NewServer(srv)}
}

func (r *replicaNode) stop() {
	r.hs.Close()
	r.follower.Stop()
	r.st.Close()
}

// waitConverged polls until every replica shard has applied everything
// the primary has logged.
func waitConverged(t *testing.T, src *repl.Source, tgt *repl.Target) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		caught := true
		for i := 0; i < src.NumShards(); i++ {
			st, err := src.Shard(i).ReplStatus()
			if err != nil {
				t.Fatal(err)
			}
			if tgt.Shard(i).AppliedSeq() != st.NextSeq-1 {
				caught = false
				break
			}
		}
		if caught {
			return
		}
		if time.Now().After(deadline) {
			for i := 0; i < src.NumShards(); i++ {
				st, _ := src.Shard(i).ReplStatus()
				t.Logf("shard %d: primary next %d, replica applied %d", i, st.NextSeq, tgt.Shard(i).AppliedSeq())
			}
			t.Fatal("replica did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var reviewTexts = []string{
	"The screen is excellent. The battery is awful.",
	"Amazing screen resolution! The battery life is terrible.",
	"Great camera and a decent price.",
	"The speaker is too quiet but the design is gorgeous.",
}

// ingest PUTs perItem review batches for each of n items concurrently.
func ingest(t *testing.T, baseURL string, n, perItem, round int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	sem := make(chan struct{}, 8)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for j := 0; j < perItem; j++ {
				body, _ := json.Marshal(server.AppendReviewsRequest{
					ItemName: fmt.Sprintf("Item %d", i),
					Reviews: []server.RawReview{{
						ID:     fmt.Sprintf("r%d-%d-%d", round, i, j),
						Text:   reviewTexts[(i+j)%len(reviewTexts)],
						Rating: float64((i+j)%5) / 4,
					}},
				})
				req, _ := http.NewRequest(http.MethodPut,
					fmt.Sprintf("%s/v1/items/item-%02d/reviews", baseURL, i), bytes.NewReader(body))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("ingest item %d: %d %s", i, resp.StatusCode, data)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// readBody GETs path and returns the body, failing on non-200.
func readBody(t *testing.T, baseURL, path string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, data)
	}
	return data
}

// itemsJSON returns the deterministic part of GET /v1/items (the item
// list; store counters differ between nodes by design).
func itemsJSON(t *testing.T, baseURL string) string {
	t.Helper()
	var resp server.ListItemsResponse
	if err := json.Unmarshal(readBody(t, baseURL, "/v1/items"), &resp); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(resp.Items)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// summaryJSON returns the deterministic part of one item's summary
// (ElapsedMS is wall clock; Cached differs between a primary that just
// solved and a replica with a cold cache).
func summaryJSON(t *testing.T, baseURL, id string) string {
	t.Helper()
	var resp server.ItemSummaryResponse
	if err := json.Unmarshal(readBody(t, baseURL, "/v1/items/"+id+"/summary?k=2"), &resp); err != nil {
		t.Fatal(err)
	}
	resp.ElapsedMS = 0
	resp.Cached = false
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// assertIdentical compares the full read surface of the two nodes:
// the item listing and every item's summary must be byte-identical.
func assertIdentical(t *testing.T, primaryURL, replicaURL string, items int) {
	t.Helper()
	if p, r := itemsJSON(t, primaryURL), itemsJSON(t, replicaURL); p != r {
		t.Fatalf("item listings differ:\nprimary: %s\nreplica: %s", p, r)
	}
	for i := 0; i < items; i++ {
		id := fmt.Sprintf("item-%02d", i)
		if p, r := summaryJSON(t, primaryURL, id), summaryJSON(t, replicaURL, id); p != r {
			t.Fatalf("summary %s differs:\nprimary: %s\nreplica: %s", id, p, r)
		}
	}
}

// TestReplicationConvergesUnderLoad is the headline acceptance test: a
// 4-shard primary ingests under concurrent HTTP load while a 4-shard
// replica tails all four WAL streams; after the load drains the
// replica's item listing and per-item summaries are byte-identical to
// the primary's, and writes to the replica are rejected with 403
// naming the primary.
func TestReplicationConvergesUnderLoad(t *testing.T) {
	const items = 16
	p := startPrimary(t, t.TempDir(), osars.StoreOptions{Shards: 4})
	defer p.st.Close()
	phs := httptest.NewServer(p.srv)
	defer phs.Close()

	r := startReplica(t, t.TempDir(), osars.StoreOptions{Shards: 4}, phs.URL)
	defer r.stop()

	// Ingest while the replica is already tailing: frames ship live.
	ingest(t, phs.URL, items, 4, 0)
	waitConverged(t, p.src, r.tgt)
	assertIdentical(t, phs.URL, r.hs.URL, items)

	// The replica refuses writes, pointing at the primary.
	body, _ := json.Marshal(server.AppendReviewsRequest{Reviews: []server.RawReview{{ID: "x", Text: "nope"}}})
	req, _ := http.NewRequest(http.MethodPut, r.hs.URL+"/v1/items/item-00/reviews", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica write status = %d, want 403", resp.StatusCode)
	}
	var e struct {
		Error   string `json:"error"`
		Primary string `json:"primary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Primary != phs.URL || e.Error == "" {
		t.Fatalf("replica 403 body = %+v, want primary %s", e, phs.URL)
	}

	// DELETE is rejected the same way.
	req, _ = http.NewRequest(http.MethodDelete, r.hs.URL+"/v1/items/item-00", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusForbidden {
		t.Fatalf("replica delete status = %d, want 403", resp2.StatusCode)
	}

	// The replica's status endpoint reports per-shard lag.
	var status struct {
		Role   string          `json:"role"`
		Shards int             `json:"shards"`
		Lag    []repl.ShardLag `json:"per_shard"`
	}
	if err := json.Unmarshal(readBody(t, r.hs.URL, "/v1/repl/status"), &status); err != nil {
		t.Fatal(err)
	}
	if status.Role != "replica" || status.Shards != 4 || len(status.Lag) != 4 {
		t.Fatalf("replica status = %+v", status)
	}
	if status.Lag[0].FramesApplied == 0 {
		t.Fatalf("shard 0 applied no frames: %+v", status.Lag[0])
	}
}

// TestReplicaRestartResumes: a replica killed mid-stream and reopened
// from the same directory resumes from its last locally durable
// sequence (not from zero) and converges on the rest.
func TestReplicaRestartResumes(t *testing.T) {
	const items = 8
	p := startPrimary(t, t.TempDir(), osars.StoreOptions{Shards: 2})
	defer p.st.Close()
	phs := httptest.NewServer(p.srv)
	defer phs.Close()

	rdir := t.TempDir()
	r := startReplica(t, rdir, osars.StoreOptions{Shards: 2}, phs.URL)
	ingest(t, phs.URL, items, 2, 0)
	waitConverged(t, p.src, r.tgt)

	// Kill the replica (follower + store) mid-deployment.
	r.stop()

	// More writes land while the replica is down.
	ingest(t, phs.URL, items, 2, 1)

	// Reopen from the same directory: the local WAL already holds the
	// first batch, so the new follower resumes past it.
	r2 := startReplica(t, rdir, osars.StoreOptions{Shards: 2}, phs.URL)
	defer r2.stop()
	var resumed uint64
	for i := 0; i < 2; i++ {
		resumed += r2.tgt.Shard(i).AppliedSeq()
	}
	if resumed == 0 {
		t.Fatal("reopened replica lost its applied position (resumed from zero)")
	}
	waitConverged(t, p.src, r2.tgt)
	assertIdentical(t, phs.URL, r2.hs.URL, items)
}

// TestSnapshotBootstrap: a follower whose cursor was compacted past on
// the primary recovers via the snapshot endpoint, then tails the
// remaining records.
func TestSnapshotBootstrap(t *testing.T) {
	const items = 6
	// Tiny segments + eager snapshots so compaction actually removes
	// the early records.
	p := startPrimary(t, t.TempDir(), osars.StoreOptions{
		SnapshotEvery:   8,
		WALSegmentBytes: 512,
	})
	defer p.st.Close()
	phs := httptest.NewServer(p.srv)
	defer phs.Close()

	ingest(t, phs.URL, items, 4, 0)
	// Force a snapshot + compaction; the WAL must no longer start at 1.
	if err := p.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st, err := p.src.Shard(0).ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.OldestSeq <= 1 {
		t.Fatalf("compaction kept the whole log (oldest %d); the bootstrap path is not exercised", st.OldestSeq)
	}
	if st.SnapshotSeq == 0 {
		t.Fatal("no snapshot recorded after Snapshot()")
	}

	// A brand-new replica starts at after=0 — compacted past — and must
	// bootstrap from the snapshot before tailing.
	r := startReplica(t, t.TempDir(), osars.StoreOptions{}, phs.URL)
	defer r.stop()
	waitConverged(t, p.src, r.tgt)
	assertIdentical(t, phs.URL, r.hs.URL, items)

	// More live writes still flow after the bootstrap.
	ingest(t, phs.URL, items, 1, 1)
	waitConverged(t, p.src, r.tgt)
	assertIdentical(t, phs.URL, r.hs.URL, items)
}

// TestReplicationChaos kills and restarts the replica mid-stream and
// restarts the primary underneath a running follower (same URL, new
// store instance), with ingest interleaved throughout. The end state
// must still be byte-identical. This is the test the CI
// replication-chaos job runs under -race.
func TestReplicationChaos(t *testing.T) {
	const items = 10
	pdir := t.TempDir()
	p := startPrimary(t, pdir, osars.StoreOptions{Shards: 2})

	// A stable front URL whose backend handler we can swap, so the
	// follower survives a primary "process restart" (new store + new
	// handler, same address) like it would behind a real balancer.
	var backend atomic.Pointer[http.Handler]
	setBackend := func(h http.Handler) { backend.Store(&h) }
	setBackend(p.srv)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*backend.Load()).ServeHTTP(w, r)
	}))
	defer front.Close()

	rdir := t.TempDir()
	r := startReplica(t, rdir, osars.StoreOptions{Shards: 2}, front.URL)

	ingest(t, front.URL, items, 2, 0)

	// Round 1: kill the replica mid-stream, write more, restart it.
	r.stop()
	ingest(t, front.URL, items, 2, 1)
	r = startReplica(t, rdir, osars.StoreOptions{Shards: 2}, front.URL)

	// Round 2: restart the primary under the running follower. While
	// it is down the front answers 503 and the follower backs off.
	setBackend(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"primary restarting"}`, http.StatusServiceUnavailable)
	}))
	if err := p.st.Close(); err != nil {
		t.Fatal(err)
	}
	p = startPrimary(t, pdir, osars.StoreOptions{Shards: 2})
	defer p.st.Close()
	setBackend(p.srv)

	ingest(t, front.URL, items, 2, 2)
	waitConverged(t, p.src, r.tgt)
	assertIdentical(t, front.URL, r.hs.URL, items)
	r.stop()
}

// TestOneShardPrimaryStatus pins a one-shard primary's
// GET /v1/repl/status to what an unsharded primary has always sent:
// shards 1 and no hash_seed key, since nothing is placed.
func TestOneShardPrimaryStatus(t *testing.T) {
	p := startPrimary(t, t.TempDir(), osars.StoreOptions{})
	defer p.st.Close()
	phs := httptest.NewServer(p.srv)
	defer phs.Close()
	var status map[string]json.RawMessage
	if err := json.Unmarshal(readBody(t, phs.URL, "/v1/repl/status"), &status); err != nil {
		t.Fatal(err)
	}
	if string(status["shards"]) != "1" {
		t.Fatalf("shards = %s, want 1", status["shards"])
	}
	if seed, ok := status["hash_seed"]; ok {
		t.Fatalf("one-shard status carries hash_seed %s", seed)
	}
}

// TestOneShardFollowerHandshakesWithoutHashSeed follows a one-shard
// primary through a front that answers /v1/repl/status with the body
// of a primary serving a bare store.Store (shards 1, no hash_seed) and
// passes the stream endpoints through. The one-shard replica must
// complete the handshake (stream requests only follow a handshake that
// passed) and converge.
func TestOneShardFollowerHandshakesWithoutHashSeed(t *testing.T) {
	p := startPrimary(t, t.TempDir(), osars.StoreOptions{})
	defer p.st.Close()
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/repl/status" {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"role":"primary","shards":1,"per_shard":[{"shard":0}]}`+"\n")
			return
		}
		p.srv.ServeHTTP(w, r)
	}))
	defer front.Close()

	r := startReplica(t, t.TempDir(), osars.StoreOptions{}, front.URL)
	defer r.stop()
	ingest(t, front.URL, 4, 2, 0)
	waitConverged(t, p.src, r.tgt)
	assertIdentical(t, front.URL, r.hs.URL, 4)
}
