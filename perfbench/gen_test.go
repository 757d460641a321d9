package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"testing"
)

// genFuncs are the workload generators, run at a short stream.
var genFuncs = map[string]func(seed int64) *inputs{
	"cold-summarize": func(seed int64) *inputs { return genColdSummarize(doctorOntology(), seed, 3) },
	"ingest-follow":  func(seed int64) *inputs { return genIngestFollow(doctorOntology(), seed, 3) },
	"read-mostly":    func(seed int64) *inputs { return genReadMostly(doctorOntology(), seed, 3) },
}

func digest(t *testing.T, in *inputs) [32]byte {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// TestSameSeedSameOpStream pins that inputs are a function of the seed
// alone: items, request bodies, op order, oracle sample and preload.
func TestSameSeedSameOpStream(t *testing.T) {
	for name, gen := range genFuncs {
		t.Run(name, func(t *testing.T) {
			a, b, c := digest(t, gen(7)), digest(t, gen(7)), digest(t, gen(8))
			if a != b {
				t.Fatal("same seed produced different inputs")
			}
			if a == c {
				t.Fatal("different seeds produced identical inputs")
			}
		})
	}
}

// TestClientsOwnDisjointItems pins that every request a client sends
// names an item it owns, so each item's op sequence, and with it every
// expected summary, does not depend on how clients interleave.
func TestClientsOwnDisjointItems(t *testing.T) {
	for name, gen := range genFuncs {
		t.Run(name, func(t *testing.T) {
			in := gen(3)
			seen := make(map[int32]int)
			for _, streams := range [][][]request{in.Warmup, in.Timed} {
				if len(streams) != in.Clients {
					t.Fatalf("%d streams for %d clients", len(streams), in.Clients)
				}
				for c, rqs := range streams {
					for _, rq := range rqs {
						if in.Owner[rq.Item] != c {
							t.Fatalf("client %d sent a request for item %d owned by client %d", c, rq.Item, in.Owner[rq.Item])
						}
						if prev, ok := seen[rq.Item]; ok && prev != c {
							t.Fatalf("item %d used by clients %d and %d", rq.Item, prev, c)
						}
						seen[rq.Item] = c
					}
				}
			}
		})
	}
}

// TestAppendsCoverEveryReview pins that the append bodies of each item,
// in stream order, carry exactly the reviews after its initial corpus,
// so the review prefix the oracle solves is the one the server holds.
func TestAppendsCoverEveryReview(t *testing.T) {
	for _, name := range []string{"ingest-follow", "read-mostly"} {
		t.Run(name, func(t *testing.T) {
			in := genFuncs[name](5)
			next := make([]int, len(in.Items))
			for i, it := range in.Items {
				next[i] = it.Initial
			}
			for _, streams := range [][][]request{in.Warmup, in.Timed} {
				for _, rqs := range streams {
					for _, rq := range rqs {
						it := &in.Items[rq.Item]
						if rq.Kind == kindAppend {
							var got struct{ Reviews []json.RawMessage }
							if err := json.Unmarshal(rq.Body, &got); err != nil {
								t.Fatal(err)
							}
							want := it.Reviews[next[rq.Item] : next[rq.Item]+int(rq.Added)]
							if len(got.Reviews) != len(want) {
								t.Fatalf("append to %s carries %d reviews, want %d", it.ID, len(got.Reviews), len(want))
							}
							for i := range want {
								if !bytes.Equal(got.Reviews[i], mustJSON(want[i])) {
									t.Fatalf("append to %s carries review %s, want %s", it.ID, got.Reviews[i], mustJSON(want[i]))
								}
							}
							next[rq.Item] += int(rq.Added)
						}
						if int(rq.Reviews) != next[rq.Item] {
							t.Fatalf("%s: request expects %d reviews, the stream implies %d", it.ID, rq.Reviews, next[rq.Item])
						}
					}
				}
			}
			for i, it := range in.Items {
				if next[i] != len(it.Reviews) {
					t.Fatalf("%s: %d reviews generated, %d appended", it.ID, len(it.Reviews), next[i])
				}
			}
		})
	}
}

// TestBenchmarkJSONNamesTheMetrics pins that BENCHMARK.json lists
// exactly the metrics a run reports, in order and with the same units.
func TestBenchmarkJSONNamesTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		file []struct{ Name, Unit string }
		run  []metricSpec
	}{{"end_to_end", bench.EndToEnd, endToEndMetrics}, {"per_layer", bench.PerLayer, perLayerMetrics}} {
		if len(c.file) != len(c.run) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, a run reports %d", c.key, len(c.file), len(c.run))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.run[i].name || m.Unit != c.run[i].unit {
				t.Errorf("%s[%d] is %s %s, a run reports %s %s", c.key, i, m.Name, m.Unit, c.run[i].name, c.run[i].unit)
			}
		}
	}
}
