// Registry of named, versioned ontology entries with optional
// directory persistence and an atomically readable active runtime.

package ontoreg

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"osars/internal/obs"
)

// RegistryOptions configures a Registry.
type RegistryOptions struct {
	// Dir, when non-empty, persists every registered entry as
	// <Dir>/<name>.json (atomic temp+rename) and lets LoadDir restore
	// the registry at boot. Empty keeps the registry in memory.
	Dir string
	// Obs, when non-nil, registers the lifecycle instruments (entry
	// gauge, upload/load-error counters, reload count + latency, the
	// active-version info gauge).
	Obs *obs.Registry
}

// Registry holds named entries, each addressable as "name" (latest
// upload wins) or "name@version" (every version registered stays
// addressable). Runtimes are compiled eagerly on Register, so
// activation is a pointer swap, not a matcher build. Safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	latest   map[string]*Entry   // by name: most recently registered
	byVer    map[string]*Entry   // by "name@version"
	runtimes map[string]*Runtime // by "name@version", built on Register
	dir      string

	active atomic.Pointer[Runtime]

	m regMetrics
}

// regMetrics is the registry's interned instruments; the zero value
// (nil instruments) is free to record into.
type regMetrics struct {
	entries       *obs.Gauge
	uploads       *obs.Counter
	loadErrors    *obs.Counter
	reloads       *obs.Counter
	reloadSeconds *obs.Histogram
	activeInfo    *obs.GaugeVec
	// prevActive is the last info-gauge child set to 1; cleared to 0 on
	// the next activation. Guarded by mu.
	prevActive *obs.Gauge
}

// NewRegistry builds an empty registry. Call LoadDir afterwards to
// restore a persisted one.
func NewRegistry(opts RegistryOptions) *Registry {
	r := &Registry{
		latest:   make(map[string]*Entry),
		byVer:    make(map[string]*Entry),
		runtimes: make(map[string]*Runtime),
		dir:      opts.Dir,
	}
	if reg := opts.Obs; reg != nil {
		r.m = regMetrics{
			entries: reg.Gauge("osars_onto_entries",
				"Distinct (name, version) ontology entries in the registry."),
			uploads: reg.Counter("osars_onto_uploads_total",
				"Ontology entries registered (uploads plus boot-time dir loads)."),
			loadErrors: reg.Counter("osars_onto_load_errors_total",
				"Entry files that failed to decode or validate (torn writes, schema errors)."),
			reloads: reg.Counter("osars_onto_reloads_total",
				"Ontology activations (hot swaps of the active runtime)."),
			reloadSeconds: reg.Histogram("osars_onto_reload_seconds",
				"Activation latency in seconds (lookup through store swap).", nil),
			activeInfo: reg.GaugeVec("osars_onto_active_info",
				"1 for the active ontology's (name, version) label pair, 0 for previously active ones.",
				"name", "version"),
		}
	}
	return r
}

// Dir returns the persistence directory ("" when memory-only).
func (r *Registry) Dir() string { return r.dir }

// versionKey joins a name and version into the byVer map key.
func versionKey(name, version string) string { return name + "@" + version }

// Register validates nothing (the entry was validated at construction)
// but compiles its runtime, indexes it under both its name and its
// name@version, and — when the registry has a directory — persists the
// canonical encoding as <dir>/<name>.json. Re-registering an identical
// entry is an idempotent no-op. Returns the entry's compiled runtime.
func (r *Registry) Register(e *Entry) (*Runtime, error) {
	return r.register(e, true)
}

func (r *Registry) register(e *Entry, persist bool) (*Runtime, error) {
	if e == nil {
		return nil, errors.New("ontoreg: Register(nil)")
	}
	key := versionKey(e.Name, e.Version)
	r.mu.Lock()
	rt, known := r.runtimes[key]
	if !known {
		rt = e.Runtime()
		r.runtimes[key] = rt
		r.byVer[key] = e
	}
	r.latest[e.Name] = e
	n := len(r.byVer)
	r.mu.Unlock()
	r.m.entries.Set(int64(n))
	if !known {
		r.m.uploads.Inc()
	}
	if persist && r.dir != "" {
		if err := r.save(e); err != nil {
			return rt, fmt.Errorf("ontoreg: persist entry %q: %w", e.Name, err)
		}
	}
	return rt, nil
}

// save writes the entry's canonical encoding atomically: a torn write
// can only ever leave a stale complete file or a dangling temp file,
// never a half-written <name>.json.
func (r *Registry) save(e *Entry) error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.dir, e.Name+".json")
	tmp, err := os.CreateTemp(r.dir, e.Name+"-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(e.payload, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadDir loads every *.json entry file from the registry's directory
// (sorted, so load order is deterministic). Files that fail to decode
// or validate — torn writes, schema mismatches, invalid DAGs — are
// skipped and reported in the joined error; everything else still
// loads, and the active runtime is never touched, so a bad upload or a
// torn file can not take down what is already serving. Returns the
// number of entries loaded.
func (r *Registry) LoadDir() (int, error) {
	if r.dir == "" {
		return 0, nil
	}
	dirents, err := os.ReadDir(r.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("ontoreg: read dir %s: %w", r.dir, err)
	}
	names := make([]string, 0, len(dirents))
	for _, de := range dirents {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		names = append(names, de.Name())
	}
	sort.Strings(names)
	loaded := 0
	var errs []error
	for _, name := range names {
		path := filepath.Join(r.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			r.m.loadErrors.Inc()
			errs = append(errs, fmt.Errorf("%s: %w", path, err))
			continue
		}
		e, err := Decode(data)
		if err != nil {
			r.m.loadErrors.Inc()
			errs = append(errs, fmt.Errorf("%s: %w", path, err))
			continue
		}
		if _, err := r.register(e, false); err != nil {
			errs = append(errs, err)
			continue
		}
		loaded++
	}
	return loaded, errors.Join(errs...)
}

// Lookup resolves "name" (latest registered) or "name@version" to its
// entry and compiled runtime.
func (r *Registry) Lookup(ref string) (*Entry, *Runtime, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var e *Entry
	if strings.Contains(ref, "@") {
		e = r.byVer[ref]
	} else {
		e = r.latest[ref]
	}
	if e == nil {
		return nil, nil, false
	}
	return e, r.runtimes[versionKey(e.Name, e.Version)], true
}

// Len returns the number of distinct (name, version) entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byVer)
}

// EntryInfo is one registry entry's listing row.
type EntryInfo struct {
	Name         string  `json:"name"`
	Version      string  `json:"version"`
	Concepts     int     `json:"concepts"`
	Edges        int     `json:"edges"`
	MaxDepth     int     `json:"max_depth"`
	LexiconWords int     `json:"lexicon_words"`
	Epsilon      float64 `json:"epsilon"`
	// Latest marks the version a bare-name lookup resolves to.
	Latest bool `json:"latest"`
	// Active marks the registry's active runtime (SetActive).
	Active bool `json:"active,omitempty"`
}

// List returns every (name, version) entry, sorted by name then
// version.
func (r *Registry) List() []EntryInfo {
	act := r.active.Load()
	r.mu.Lock()
	out := make([]EntryInfo, 0, len(r.byVer))
	for _, e := range r.byVer {
		info := EntryInfo{
			Name:         e.Name,
			Version:      e.Version,
			Concepts:     e.Ontology.Len(),
			Edges:        e.Ontology.NumEdges(),
			MaxDepth:     e.Ontology.MaxDepth(),
			LexiconWords: len(e.Lexicon),
			Epsilon:      e.Epsilon,
			Latest:       r.latest[e.Name] == e,
		}
		if act != nil && act.Name == e.Name && act.Version == e.Version {
			info.Active = true
		}
		out = append(out, info)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// Active returns the registry's active runtime (nil until SetActive).
// On serving nodes the STORE's active runtime is authoritative — it is
// the one recovered from the WAL and advanced by replication; the
// registry's pointer tracks what this node last activated locally.
func (r *Registry) Active() *Runtime { return r.active.Load() }

// SetActive records rt as the registry's active runtime.
func (r *Registry) SetActive(rt *Runtime) { r.active.Store(rt) }

// RecordActivation instruments one completed activation: reload count,
// latency, and the active-version info gauge (the previous version's
// child drops to 0 so a scrape always shows exactly one live pair).
func (r *Registry) RecordActivation(rt *Runtime, d time.Duration) {
	r.m.reloads.Inc()
	r.m.reloadSeconds.Observe(d.Seconds())
	if r.m.activeInfo == nil {
		return
	}
	r.mu.Lock()
	if r.m.prevActive != nil {
		r.m.prevActive.Set(0)
	}
	g := r.m.activeInfo.With(rt.Name, rt.Version)
	g.Set(1)
	r.m.prevActive = g
	r.mu.Unlock()
}
