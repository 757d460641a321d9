package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"osars"
	"osars/internal/obs"
	"osars/internal/server"
)

// env is one benchmark run's settings.
type env struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // where the span trace is written
	dir      string // per-run scratch directory, removed when the run ends
}

// served is the program under test once set up.
type served struct {
	sum    *osars.Summarizer
	srv    *server.Server
	st     osars.Store   // nil on the stateless path
	dir    string        // the store's data directory, if durable
	reg    *obs.Registry // non-nil in traced runs
	setups []time.Duration
	routes []string
}

func (sv *served) close() error {
	if sv.st == nil {
		return nil
	}
	err := sv.st.Close()
	if sv.dir != "" {
		os.RemoveAll(sv.dir)
	}
	return err
}

// coldSetupReps repeats the stateless set-up, which takes a few
// milliseconds, so its median is steady.
const coldSetupReps = 31

var statefulRoutes = []string{"/v1/items/{id}/reviews", "/v1/items/{id}/summary"}

func newSummarizer() (*osars.Summarizer, error) {
	return osars.New(osars.Config{Ontology: doctorOntology(), Epsilon: 0.5})
}

// newHandler wires the server as osars-serve does with its default
// flags: admission off, the ontology registry armed, and metrics only
// when reg is set.
func newHandler(sum *osars.Summarizer, st osars.Store, reg *obs.Registry) *server.Server {
	srv := server.NewWithStore(sum, st)
	if reg != nil {
		srv.ConfigureObservability(server.ObservabilityConfig{Metrics: reg})
	}
	srv.ConfigureOntologies(osars.NewOntologyRegistry(osars.OntologyRegistryOptions{Obs: reg}))
	return srv
}

// snapshotEvery is osars-serve's default snapshot cadence, in records.
const snapshotEvery = 4096

// storeOptions are osars-serve's defaults: one shard, a 1024-entry /
// 64 MiB cache, the coverage index on, FsyncAlways and a snapshot every
// 4096 records.
func storeOptions(dir string, reg *obs.Registry) osars.StoreOptions {
	return osars.StoreOptions{
		MaxCacheEntries: 1024,
		MaxCacheBytes:   64 << 20,
		Shards:          1,
		DataDir:         dir,
		Fsync:           osars.FsyncAlways,
		FsyncInterval:   100 * time.Millisecond,
		SnapshotEvery:   snapshotEvery,
		WALSegmentBytes: 8 << 20,
		Metrics:         reg,
	}
}

func (e *env) registry() *obs.Registry {
	if e.trace {
		return obs.NewRegistry()
	}
	return nil
}

// serve sends one set-up request and fails on a non-2xx answer.
func serve(h http.Handler, method, target string, body []byte) error {
	var r io.Reader = http.NoBody
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, target, r)
	if err != nil {
		return err
	}
	w := newRecorder()
	h.ServeHTTP(w, req)
	if w.status/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, target, w.status, bytes.TrimSpace(w.body.Bytes()))
	}
	return nil
}

// setupCold times server construction: the ontology, its compiled
// runtime and the handler, as osars-serve -stateless builds them.
func setupCold(e *env, _ *inputs) (*served, error) {
	sv := &served{routes: []string{"/v1/summarize"}}
	for i := 0; i < coldSetupReps; i++ {
		reg := e.registry()
		t0 := time.Now()
		sum, err := newSummarizer()
		if err != nil {
			return nil, err
		}
		srv := newHandler(sum, nil, reg)
		sv.setups = append(sv.setups, time.Since(t0))
		sv.sum, sv.srv, sv.reg = sum, srv, reg
	}
	return sv, nil
}

// setupRead times building an in-memory store and ingesting the corpus
// through PUT, one request per item.
func setupRead(e *env, in *inputs) (*served, error) {
	reg := e.registry()
	t0 := time.Now()
	sum, err := newSummarizer()
	if err != nil {
		return nil, err
	}
	st, err := sum.OpenStore(storeOptions("", reg))
	if err != nil {
		return nil, err
	}
	srv := newHandler(sum, st, reg)
	for j, body := range in.Preload {
		if err := serve(srv, "PUT", in.appendURL[j], body); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return &served{sum: sum, srv: srv, st: st, reg: reg, routes: statefulRoutes, setups: []time.Duration{time.Since(t0)}}, nil
}

// setupFollow times what a restarted durable server pays: OpenStore
// recovering a snapshot plus WAL tail, then the first summary of every
// item, which rebuilds its coverage index. It recovers a fresh copy of
// the data directory buildDataDir wrote; the copy is not timed.
func setupFollow(e *env, in *inputs) (*served, error) {
	dir, err := os.MkdirTemp(e.dir, "data-")
	if err != nil {
		return nil, err
	}
	if err := copyDir(filepath.Join(e.dir, pristineDir), dir); err != nil {
		return nil, err
	}
	// Flush the copy (and the previous round's deleted directory) now,
	// so the kernel's writeback does not compete with the timed phase.
	syscall.Sync()
	reg := e.registry()
	t0 := time.Now()
	sum, err := newSummarizer()
	if err != nil {
		return nil, err
	}
	st, err := sum.OpenStore(storeOptions(dir, reg))
	if err != nil {
		return nil, err
	}
	srv := newHandler(sum, st, reg)
	sv := &served{sum: sum, srv: srv, st: st, dir: dir, reg: reg, routes: statefulRoutes}
	for j := range in.Items {
		if err := serve(srv, "GET", in.summaryURL[j][0], nil); err != nil {
			sv.close()
			return nil, fmt.Errorf("first summary: %w", err)
		}
	}
	sv.setups = []time.Duration{time.Since(t0)}
	return sv, nil
}

// followChunk is the reviews per logged append while building the
// data directory; pristineDir, under the run directory, holds the
// result.
const (
	followChunk = 100
	pristineDir = "pristine"
)

// buildDataDir writes the data directory ingest-follow recovers: every
// item's initial corpus, all but in.WALTail reviews per item covered by
// a snapshot and the rest left in the WAL tail, one review per record.
// It is part of input generation, not of set-up.
func buildDataDir(in *inputs, runDir string) error {
	build := filepath.Join(runDir, "build")
	sum, err := newSummarizer()
	if err != nil {
		return err
	}
	opts := storeOptions(build, nil)
	opts.Fsync, opts.SnapshotEvery = osars.FsyncNever, -1
	st, err := sum.OpenStore(opts)
	if err != nil {
		return err
	}
	defer os.RemoveAll(build)
	defer st.Close()
	appendRange := func(from, to, chunk int) error {
		for off := from; off < to; off += chunk {
			for i := range in.Items {
				it := &in.Items[i]
				name := ""
				if off == 0 {
					name = it.Name
				}
				if _, err := st.AppendReviews(it.ID, name, toReviews(it.Reviews[off:min(off+chunk, to)])); err != nil {
					return err
				}
			}
		}
		return nil
	}
	bulk := followInitial - in.WALTail
	if err := appendRange(0, bulk, followChunk); err != nil {
		return err
	}
	if err := st.Snapshot(); err != nil {
		return err
	}
	if err := appendRange(bulk, followInitial, 1); err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return err
	}
	// Copy while the store is open: Close would fold the tail into a
	// final snapshot.
	return copyDir(build, filepath.Join(runDir, pristineDir))
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
