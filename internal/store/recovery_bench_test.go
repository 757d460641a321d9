package store

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/model"
)

// The data directory the recovery benchmarks open has the shape of
// perfbench's ingest-follow: followItems doctor items of followReviews
// reviews each, all but the last followTail of every item covered by a
// snapshot and those left in the WAL, one review per record.
const followItems, followReviews, followTail = 32, 1000, 90

// followConfig is a store over the medical ontology the doctor corpus
// is generated from.
func followConfig() Config {
	ont := dataset.MedicalOntology(dataset.MedicalOntologyConfig{Seed: 1})
	return Config{
		Metric:   model.Metric{Ont: ont, Epsilon: 0.5},
		Pipeline: extract.NewPipeline(extract.NewMatcher(ont), nil),
	}
}

// writeFollowDir writes that directory under tb.TempDir, building the
// snapshot in chunks of 100 reviews per item. It returns the directory
// and a copy taken before the tail was appended, which holds the
// snapshot alone.
func writeFollowDir(tb testing.TB) (full, snapOnly string) {
	tb.Helper()
	gen := dataset.DoctorConfig(7001)
	gen.NumItems, gen.TotalReviews = followItems, followItems*followReviews
	gen.MinReviews, gen.MaxReviews = followReviews, followReviews
	ont := dataset.MedicalOntology(dataset.MedicalOntologyConfig{Seed: 1})
	corpus := dataset.GenerateWithOntology(gen, ont)
	root := tb.TempDir()
	build, full, snapOnly := filepath.Join(root, "build"), filepath.Join(root, "full"), filepath.Join(root, "snapshot")
	for _, dir := range []string{full, snapOnly} {
		if err := os.Mkdir(dir, 0o755); err != nil {
			tb.Fatal(err)
		}
	}
	cfg := followConfig()
	cfg.DataDir, cfg.Fsync, cfg.SnapshotEvery = build, FsyncNever, -1
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	appendRange := func(from, to, chunk int) {
		for off := from; off < to; off += chunk {
			for i := range corpus.Items {
				it := &corpus.Items[i]
				raws := make([]extract.RawReview, 0, chunk)
				for _, r := range it.Reviews[off:min(off+chunk, to)] {
					raws = append(raws, extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating})
				}
				if _, err := s.AppendReviews(it.ID, it.Name, raws); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	appendRange(0, followReviews-followTail, 100)
	if err := s.Snapshot(); err != nil {
		tb.Fatal(err)
	}
	copyDir(tb, build, snapOnly)
	appendRange(followReviews-followTail, followReviews, 1)
	if err := s.Sync(); err != nil {
		tb.Fatal(err)
	}
	// Copy before Close, which would fold the tail into a snapshot.
	copyDir(tb, build, full)
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	return full, snapOnly
}

// BenchmarkRecoveryOpen times what a restarted durable store pays on
// the ingest-follow directory: New, then the first greedy summary of
// every item, which rebuilds its coverage index. It reports the split:
// snapshot-ms is New on the snapshot alone, replay-ms the rest of New
// on the whole directory, and summaries-ms the first summaries. Each
// open starts after a collection, so that the split is not the
// garbage of the one before.
func BenchmarkRecoveryOpen(b *testing.B) {
	full, snapOnly := writeFollowDir(b)
	cfg := followConfig()
	b.Run("ingest-follow", func(b *testing.B) {
		var snapshot, open, summaries time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dirs := [2]string{b.TempDir(), b.TempDir()}
			copyDir(b, snapOnly, dirs[0])
			copyDir(b, full, dirs[1])
			cfg.DataDir = dirs[0]
			runtime.GC()
			start := time.Now()
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			snapshot += time.Since(start)
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			cfg.DataDir = dirs[1]
			runtime.GC()
			b.StartTimer()

			start = time.Now()
			s, err = New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			open += time.Since(start)
			start = time.Now()
			for _, it := range s.List() {
				if _, _, err := s.Summary(it.ID, 5, model.GranularitySentences, MethodGreedy); err != nil {
					b.Fatal(err)
				}
			}
			summaries += time.Since(start)

			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(b.N) / 1e6 }
		b.ReportMetric(ms(snapshot), "snapshot-ms/op")
		b.ReportMetric(ms(open-snapshot), "replay-ms/op")
		b.ReportMetric(ms(summaries), "summaries-ms/op")
	})
}
