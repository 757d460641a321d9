// Command osars-serve runs the summarization HTTP service:
//
//	osars-serve -addr :8080 -domain phone
//	osars-serve -addr :8080 -ontology data/phone-ontology.json
//
// Stateless, one-shot (the request carries the reviews):
//
//	curl -s localhost:8080/v1/summarize -d '{
//	  "item_id": "p1", "k": 3,
//	  "reviews": [{"id":"r1","text":"The screen is excellent. The battery is awful."}]
//	}'
//
// Stateful (the server accumulates the corpus; reads hit the
// generation-aware summary cache):
//
//	curl -s -X PUT localhost:8080/v1/items/p1/reviews -d '{
//	  "reviews": [{"id":"r1","text":"The screen is excellent. The battery is awful."}]
//	}'
//	curl -s 'localhost:8080/v1/items/p1/summary?k=3'
//	curl -s localhost:8080/v1/items
//	curl -s -X DELETE localhost:8080/v1/items/p1
//
// The store is tuned with -cache-entries / -cache-bytes and disabled
// entirely with -stateless.
//
// Sharding: -shards N partitions the corpus across N independent
// stores (per-shard lock, generation counter, summary-cache slice and
// WAL stream), routed by a seeded consistent hash of the item ID.
// A durable sharded store keeps shard i under <data-dir>/shard-NNNN
// and pins the layout in <data-dir>/shard-layout.json; reopening with
// a different -shards count is refused (use a fresh -data-dir to
// change the layout).
//
// Admission control: -max-inflight-solves bounds concurrently running
// solve-class requests (POST /v1/summarize, GET /v1/items/{id}/summary);
// excess requests wait at most -queue-wait in a bounded queue and are
// then shed with 429 + Retry-After. GET /v1/stats exposes the
// admission counters (inflight, queue depth high-water, shed counts)
// and the per-shard store breakdown.
//
// Durable mode: with -data-dir the corpus survives restarts. Every
// acknowledged write is appended to a CRC32C-framed write-ahead log
// before the reply goes out (flush policy: -fsync always|interval|never),
// snapshots bound recovery time (-snapshot-every), and on boot the
// server restores latest-snapshot-then-replay:
//
//	osars-serve -addr :8080 -data-dir /var/lib/osars -fsync always
//
// Replication: a durable server is a replication primary by default —
// it serves its WAL streams under /v1/repl/ so read replicas can
// follow. A replica runs with -role=replica -follow=<primary URL>:
// it tails every shard's WAL from the primary, applies the records
// locally, serves the full read/summary API, and rejects writes with
// 403 naming the primary:
//
//	osars-serve -addr :8080 -data-dir /var/lib/osars -shards 4
//	osars-serve -addr :8081 -data-dir /var/lib/osars-replica -shards 4 \
//	    -role=replica -follow=http://localhost:8080
//
// /readyz (as opposed to the pure-liveness /healthz) answers 503
// while boot recovery runs, and on a replica while the replication
// lag exceeds -max-lag-for-ready — so a load balancer stops routing
// reads to a node that would serve stale data. GET /v1/repl/status
// reports the per-shard positions on either role.
//
// On SIGINT/SIGTERM the server drains in-flight requests
// (-shutdown-timeout), flushes the WAL and writes a final snapshot
// before exiting, so the next boot replays nothing.
//
// Profiling: -pprof addr serves net/http/pprof on a SEPARATE listener
// (keep it loopback-only; it is never mixed into the service mux):
//
//	osars-serve -addr :8080 -pprof localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// Ontology lifecycle: the boot-time ontology (-domain / -ontology /
// -eps) is only the starting point. Versioned (ontology, lexicon, ε)
// bundles in the osars-ontology/v1 JSON format (generate one with
// osars-gen -entry) can be uploaded and hot-activated on the running
// server with NO restart — in-flight requests finish on the version
// they started with, stored items re-annotate lazily, and activations
// are WAL-logged so they survive restarts and replicate to followers:
//
//	osars-serve -addr :8080 -data-dir /var/lib/osars -ontology-dir /var/lib/osars-onto
//	curl -s -X PUT localhost:8080/v1/ontologies/phone --data-binary @phone-entry.json
//	curl -s -X POST localhost:8080/v1/ontologies/phone/activate
//	curl -s localhost:8080/v1/ontologies
//
// -active-ontology name[@version] activates a registry entry right
// after boot recovery (primary only; replicas adopt the primary's
// active version through the replication stream). Stateless requests
// may pin a registered domain per call with {"ontology": "name"}.
//
// Monitoring: -metrics exposes Prometheus text metrics on GET /metrics
// (on the main listener, and on the -pprof listener too when one is
// configured) covering every layer: HTTP routes, admission control,
// store/cache, WAL and replication. The endpoint is never admission-
// or boot-gated. -slow-request-threshold additionally logs one
// structured line per request over the threshold:
//
//	osars-serve -addr :8080 -metrics -slow-request-threshold 500ms
//	curl -s localhost:8080/metrics | grep osars_http
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"osars"
	"osars/internal/dataset"
	"osars/internal/ontology"
	"osars/internal/repl"
	"osars/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		domain       = flag.String("domain", "phone", "built-in ontology when -ontology is not given: phone|doctor")
		ontPath      = flag.String("ontology", "", "path to an ontology JSON file (overrides -domain)")
		eps          = flag.Float64("eps", 0.5, "sentiment threshold ε")
		ontoDir      = flag.String("ontology-dir", "", "ontology registry persistence: entries uploaded via PUT /v1/ontologies/{name} land here and reload on boot; empty keeps uploads in memory only")
		activeOnt    = flag.String("active-ontology", "", "activate this registry entry (\"name\" or \"name@version\", resolved against -ontology-dir) on the store after boot recovery")
		stateless    = flag.Bool("stateless", false, "disable the stateful /v1/items API")
		cacheEntries = flag.Int("cache-entries", 1024, "summary cache entry budget (negative disables caching)")
		cacheBytes   = flag.Int64("cache-bytes", 64<<20, "summary cache byte budget (negative: entry-count only)")
		dataDir      = flag.String("data-dir", "", "durable mode: persist the corpus (WAL + snapshots) in this directory; empty keeps the store in memory")
		fsyncMode    = flag.String("fsync", "always", "WAL flush policy: always (sync before every ack), interval (background timer), never (OS page cache)")
		fsyncEvery   = flag.Duration("fsync-interval", 100*time.Millisecond, "flush period under -fsync interval")
		snapEvery    = flag.Int("snapshot-every", 4096, "write a snapshot and compact the WAL after this many logged records (negative disables automatic snapshots)")
		segBytes     = flag.Int64("wal-segment-bytes", 8<<20, "WAL segment rotation threshold")
		shutdownWait = flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown deadline for draining in-flight requests")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables")
		shards       = flag.Int("shards", 1, "partition the corpus across this many independent stores (per-shard lock + WAL); 1 keeps the single-partition layout")
		maxSolves    = flag.Int("max-inflight-solves", 0, "admission control: max concurrently running solve requests (summarize + item summary); 0 disables (unlimited)")
		maxReads     = flag.Int("max-inflight-reads", 0, "admission control: max concurrently running cheap-read requests (item stats + listings); 0 disables (unlimited)")
		queueWait    = flag.Duration("queue-wait", server.DefaultQueueWait, "admission control: longest a request may wait for a slot before being shed with 429")
		role         = flag.String("role", "primary", "replication role: primary (serves WAL streams under /v1/repl/ when durable) or replica (read-only, follows -follow)")
		follow       = flag.String("follow", "", "replica mode: base URL of the primary to follow, e.g. http://primary:8080")
		maxLagReady  = flag.Uint64("max-lag-for-ready", 1024, "replica readiness: /readyz answers 503 while the worst per-shard replication lag exceeds this many WAL records")
		metricsOn    = flag.Bool("metrics", false, "expose Prometheus text metrics on GET /metrics (and on the -pprof listener when set)")
		slowThresh   = flag.Duration("slow-request-threshold", 0, "log one structured line per request at least this slow (method, route, status, duration, queue wait, shard); 0 disables")
	)
	flag.Parse()

	switch *role {
	case "primary":
		if *follow != "" {
			log.Fatalf("osars-serve: -follow is only valid with -role=replica")
		}
	case "replica":
		if *follow == "" {
			log.Fatalf("osars-serve: -role=replica requires -follow=<primary URL>")
		}
		if *stateless {
			log.Fatalf("osars-serve: -role=replica needs the stateful store (drop -stateless)")
		}
		if *activeOnt != "" {
			log.Fatalf("osars-serve: -active-ontology is primary-only; replicas adopt the primary's active ontology through replication")
		}
	default:
		log.Fatalf("osars-serve: unknown -role %q (primary|replica)", *role)
	}

	var ont *ontology.Ontology
	switch {
	case *ontPath != "":
		data, err := os.ReadFile(*ontPath)
		if err != nil {
			log.Fatalf("osars-serve: %v", err)
		}
		ont = new(ontology.Ontology)
		if err := json.Unmarshal(data, ont); err != nil {
			log.Fatalf("osars-serve: parse ontology: %v", err)
		}
	case *domain == "phone":
		ont = dataset.CellPhoneOntology()
	case *domain == "doctor":
		ont = dataset.MedicalOntology(dataset.MedicalOntologyConfig{Seed: 1})
	default:
		log.Fatalf("osars-serve: unknown -domain %q", *domain)
	}

	sum, err := osars.New(osars.Config{Ontology: ont, Epsilon: *eps})
	if err != nil {
		log.Fatalf("osars-serve: %v", err)
	}
	fsync, err := osars.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		log.Fatalf("osars-serve: %v", err)
	}
	if *stateless && *dataDir != "" {
		log.Fatalf("osars-serve: -data-dir requires the stateful store (drop -stateless)")
	}
	if *stateless && *activeOnt != "" {
		log.Fatalf("osars-serve: -active-ontology activates on the stateful store (drop -stateless)")
	}
	// One registry for the whole process: the HTTP layer, admission,
	// every store shard, the WAL and the replication follower all
	// register into it, so a single scrape covers the full stack.
	var reg *osars.MetricsRegistry
	if *metricsOn {
		reg = osars.NewMetricsRegistry()
	}
	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: the profiling
		// endpoints never share a port (or a handler tree) with the
		// public API, so exposing the service does not expose pprof.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		if reg != nil {
			// Metrics ride on the ops listener too: a scraper pointed at
			// the loopback pprof port works even if the public port is
			// firewalled away from the monitoring network.
			pm.Handle("GET /metrics", reg.Handler())
		}
		go func() {
			psrv := &http.Server{
				Addr:              *pprofAddr,
				Handler:           pm,
				ReadHeaderTimeout: 10 * time.Second,
				ReadTimeout:       30 * time.Second,
				// Profiles stream for up to ?seconds=N; give them
				// room, but never an unbounded connection.
				WriteTimeout:   5 * time.Minute,
				IdleTimeout:    2 * time.Minute,
				MaxHeaderBytes: 1 << 20,
			}
			fmt.Printf("osars-serve: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("osars-serve: pprof listener: %v", err)
			}
		}()
	}

	// The handler mounts before the store exists so the listener can
	// answer /healthz (and the repl endpoints can answer 503) while a
	// large WAL recovery runs; FinishBoot installs the store when it is
	// ready.
	h := server.NewWithStore(sum, nil)
	if *maxSolves > 0 || *maxReads > 0 {
		h.ConfigureAdmission(server.AdmissionConfig{
			MaxInflightSolves: *maxSolves,
			MaxInflightReads:  *maxReads,
			QueueWait:         *queueWait,
		})
	}
	if reg != nil || *slowThresh > 0 {
		h.ConfigureObservability(server.ObservabilityConfig{
			Metrics:              reg,
			SlowRequestThreshold: *slowThresh,
		})
	}
	// The ontology lifecycle API is always armed: a memory-only registry
	// still allows upload + hot-activate, it just forgets uploads on
	// restart (the ACTIVE version itself survives via the store's WAL).
	ontoReg := osars.NewOntologyRegistry(osars.OntologyRegistryOptions{Dir: *ontoDir, Obs: reg})
	if *ontoDir != "" {
		n, err := ontoReg.LoadDir()
		if err != nil {
			// Partial load: bad files are skipped, everything valid is
			// registered. Keep serving rather than refuse to boot over one
			// torn upload.
			log.Printf("osars-serve: ontology registry: %v (serving the %d entries that loaded)", err, n)
		} else if n > 0 {
			fmt.Printf("osars-serve: ontology registry: %d entries from %s\n", n, *ontoDir)
		}
	}
	h.ConfigureOntologies(ontoReg)
	var (
		primaryH    *repl.PrimaryHandler
		replicaH    *repl.ReplicaHandler
		followerRef atomic.Pointer[repl.Follower]
	)
	if !*stateless {
		h.BeginBoot()
		switch {
		case *role == "replica":
			replicaH = repl.NewReplicaHandler()
			h.HandleRepl(replicaH)
			h.SetPrimary(*follow)
			h.ConfigureReadiness(func() error {
				f := followerRef.Load()
				if f == nil {
					return errors.New("replication follower not started")
				}
				if lag := f.MaxLagSeqs(); lag > *maxLagReady {
					return fmt.Errorf("replication lag %d records exceeds -max-lag-for-ready=%d", lag, *maxLagReady)
				}
				return nil
			})
		case *dataDir != "":
			primaryH = repl.NewPrimaryHandler()
			h.HandleRepl(primaryH)
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		// A slow (or malicious) client must never pin a connection
		// forever: bound the whole request read, the whole response
		// write and keep-alive idling. The write timeout leaves room
		// for a queued admission wait plus a worst-case ILP solve; the
		// replication stream handler extends its own deadline per
		// flushed batch via http.ResponseController.
		ReadTimeout:    1 * time.Minute,
		WriteTimeout:   2 * time.Minute,
		IdleTimeout:    2 * time.Minute,
		MaxHeaderBytes: 1 << 20,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	// Boot the store with the listener already accepting connections:
	// /healthz answers, /readyz and the stateful endpoints say 503
	// until FinishBoot.
	var st osars.Store
	var follower *repl.Follower
	if !*stateless {
		st, err = sum.OpenStore(osars.StoreOptions{
			MaxCacheEntries: *cacheEntries,
			MaxCacheBytes:   *cacheBytes,
			Shards:          *shards,
			DataDir:         *dataDir,
			Fsync:           fsync,
			FsyncInterval:   *fsyncEvery,
			SnapshotEvery:   *snapEvery,
			WALSegmentBytes: *segBytes,
			Replica:         *role == "replica",
			Metrics:         reg,
		})
		if err != nil {
			log.Fatalf("osars-serve: open store: %v", err)
		}
		if rec, ok := st.Recovery(); ok {
			fmt.Printf("osars-serve: recovered %d items from %s in %v "+
				"(snapshot seq %d with %d items, %d WAL records replayed, wal seq %d",
				rec.Items, *dataDir, rec.Duration.Round(time.Microsecond),
				rec.SnapshotSeq, rec.SnapshotItems, rec.ReplayedRecords, rec.LastSeq)
			if rec.TruncatedBytes > 0 {
				fmt.Printf("; torn tail: %d bytes truncated, %d segments dropped", rec.TruncatedBytes, rec.DroppedSegments)
			}
			fmt.Println(")")
		}
		h.FinishBoot(st)
		if *activeOnt != "" {
			_, rt, ok := ontoReg.Lookup(*activeOnt)
			if !ok {
				log.Fatalf("osars-serve: -active-ontology: no entry %q in the registry (check -ontology-dir)", *activeOnt)
			}
			start := time.Now()
			if err := st.ActivateOntology(rt); err != nil {
				log.Fatalf("osars-serve: -active-ontology: %v", err)
			}
			ontoReg.SetActive(rt)
			ontoReg.RecordActivation(rt, time.Since(start))
			fmt.Printf("osars-serve: activated ontology %s@%s\n", rt.Name, rt.Version)
		}
		if primaryH != nil {
			src, err := repl.NewSource(st)
			if err != nil {
				log.Fatalf("osars-serve: %v", err)
			}
			primaryH.Attach(src)
		}
		if *role == "replica" {
			tgt, err := repl.NewTarget(st)
			if err != nil {
				log.Fatalf("osars-serve: %v", err)
			}
			follower, err = repl.StartFollower(repl.FollowerConfig{
				PrimaryURL: *follow,
				Target:     tgt,
				Logf:       log.Printf,
				Obs:        reg,
			})
			if err != nil {
				log.Fatalf("osars-serve: %v", err)
			}
			followerRef.Store(follower)
			replicaH.Attach(follower, *follow)
		}
	}

	mode := fmt.Sprintf("stateful, cache %d entries / %d MiB", *cacheEntries, *cacheBytes>>20)
	if *stateless {
		mode = "stateless"
	} else if *dataDir != "" {
		mode += fmt.Sprintf(", durable in %s (fsync=%s)", *dataDir, fsync)
	}
	if !*stateless && *shards > 1 {
		mode += fmt.Sprintf(", %d shards", *shards)
	}
	if *maxSolves > 0 {
		mode += fmt.Sprintf(", admission %d solves/queue-wait %v", *maxSolves, *queueWait)
	}
	if *ontoDir != "" {
		mode += fmt.Sprintf(", ontology registry in %s", *ontoDir)
	}
	if reg != nil {
		mode += ", metrics on /metrics"
	}
	if *slowThresh > 0 {
		mode += fmt.Sprintf(", slow-log ≥%v", *slowThresh)
	}
	switch {
	case *role == "replica":
		mode += fmt.Sprintf(", replica of %s (ready under %d lag)", *follow, *maxLagReady)
	case primaryH != nil:
		mode += ", replication primary"
	}
	fmt.Printf("osars-serve: listening on %s with %v (ε=%.2f, %s)\n", *addr, ont, *eps, mode)

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections,
	// drain in-flight requests under a deadline, then flush + fsync
	// the WAL and write a final snapshot. A second signal aborts
	// immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("osars-serve: %v", err)
		}
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills us
		fmt.Printf("osars-serve: shutting down (deadline %v)\n", *shutdownWait)
		shCtx, cancel := context.WithTimeout(context.Background(), *shutdownWait)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("osars-serve: drain: %v (closing anyway)", err)
			srv.Close()
		}
	}
	// Stop the follower before closing the store: an apply racing the
	// close would fail spuriously.
	if follower != nil {
		follower.Stop()
	}
	if st != nil {
		if err := st.Close(); err != nil {
			log.Fatalf("osars-serve: close store: %v", err)
		}
		fmt.Println("osars-serve: store flushed and snapshotted; bye")
	}
}
