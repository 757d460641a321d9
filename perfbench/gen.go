package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"osars"
	"osars/internal/dataset"
	"osars/internal/server"
)

// Table 1's doctor corpus (dataset.DoctorConfig): 43–354 reviews per
// item, 68.7 on average, log-normally skewed with σ = 0.45.
// tableOneMedian is the median of that log-normal.
const (
	tableOneMin    = 43
	tableOneMax    = 354
	tableOneMedian = 62.1
	tableOneSigma  = 0.45
)

// Workload shapes. The per-second constants size the fixed op stream so
// that its rounds together fill roughly --seconds of timed phase on a
// 2-core machine; the stream length depends only on --seconds, never on
// measured speed, so a faster program finishes the same work sooner.
const (
	coldItems  = 256  // distinct request bodies, cycled in seeded order
	coldRate   = 1000 // timed requests per second of --seconds
	coldWarmup = 300
	coldChecks = 64

	followItems    = 32
	followInitial  = 1000 // reviews per item in the recovered data directory
	followRate     = 500  // timed append+summary pairs per second of --seconds
	followWarmup   = 100  // warm-up pairs per client
	followChecks   = 24
	followMaxBatch = 3 // reviews per append: 1..followMaxBatch

	readItems      = 512
	readRate       = 36000 // timed requests per second of --seconds
	readWarmup     = 4000  // warm-up requests per client
	readChecks     = 128
	readWriteShare = 0.05
	readZipfS      = 1.1
)

type kind uint8

const (
	kindSummarize kind = iota // POST /v1/summarize
	kindAppend                // PUT /v1/items/{id}/reviews
	kindSummary               // GET /v1/items/{id}/summary
)

// variant is the (k, granularity) of a summary request. Every request
// uses the greedy method.
type variant struct {
	K    int
	Gran string
}

var (
	coldVariants   = []variant{{5, "sentences"}}
	followVariants = []variant{{5, "sentences"}}
	readVariants   = []variant{
		{3, "pairs"}, {3, "sentences"}, {3, "reviews"},
		{5, "pairs"}, {5, "sentences"}, {5, "reviews"},
		{10, "pairs"}, {10, "sentences"}, {10, "reviews"},
	}
)

// request is one pre-generated HTTP operation.
type request struct {
	Kind    kind
	Item    int32
	Variant uint8
	// Check marks the responses the oracle re-solves after the run.
	Check bool
	// Reviews is the item's review count once this request has been
	// applied: the prefix the oracle solves.
	Reviews int32
	// Added is the number of reviews an append carries.
	Added uint8
	// Body is the request body; nil for GETs.
	Body []byte
}

// fixture is one generated item. Reviews[:Initial] exist before the
// timed phase starts; the op stream appends the rest, in order.
type fixture struct {
	ID      string
	Name    string
	Reviews []server.RawReview
	Initial int
}

// inputs is everything a workload feeds the server. It is generated
// from the seed before any clock starts.
type inputs struct {
	Clients  int
	Items    []fixture
	Owner    []int // the client that owns each item
	Variants []variant
	// Preload holds one PUT body per item carrying Reviews[:Initial]
	// (read-mostly ingests its corpus through HTTP during set-up).
	Preload [][]byte
	// WALTail is how many of each item's initial reviews ingest-follow's
	// data directory leaves in the WAL tail, one record each.
	WALTail int
	Warmup  [][]request // per client
	Timed   [][]request // per client

	summaryURL [][]string // [item][variant]
	appendURL  []string
}

// route returns the method and target of a request.
func (in *inputs) route(rq *request) (string, string) {
	switch rq.Kind {
	case kindAppend:
		return "PUT", in.appendURL[rq.Item]
	case kindSummary:
		return "GET", in.summaryURL[rq.Item][rq.Variant]
	default:
		return "POST", "/v1/summarize"
	}
}

func (in *inputs) buildURLs() {
	in.summaryURL = make([][]string, len(in.Items))
	in.appendURL = make([]string, len(in.Items))
	for i, it := range in.Items {
		in.appendURL[i] = "/v1/items/" + it.ID + "/reviews"
		for _, v := range in.Variants {
			in.summaryURL[i] = append(in.summaryURL[i],
				fmt.Sprintf("/v1/items/%s/summary?k=%d&granularity=%s&method=greedy", it.ID, v.K, v.Gran))
		}
	}
}

// doctorOntology is the ontology every workload serves: osars-serve
// -domain doctor.
func doctorOntology() *osars.Ontology {
	return dataset.MedicalOntology(dataset.MedicalOntologyConfig{Seed: 1})
}

// subSeed derives an independent seed for one stream of one run.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64() >> 1)
}

// tableOneSizes returns n review counts at evenly spaced quantiles of
// the Table 1 distribution, largest last and pinned to Table 1's
// maximum. Sizes are not drawn at random, so every seed runs the same
// mix of item sizes and only text and order change with the seed.
func tableOneSizes(n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/float64(n)-1)
		c := int(math.Round(tableOneMedian * math.Exp(tableOneSigma*z)))
		sizes[i] = min(max(c, tableOneMin), tableOneMax)
	}
	sizes[n-1] = tableOneMax
	return sizes
}

// fixedPerm spreads sizes over item slots with a permutation that does
// not depend on the seed, so an item's popularity rank always comes
// with the same size.
func fixedPerm(n int) []int { return rand.New(rand.NewSource(1)).Perm(n) }

// genReviews generates n doctor reviews in the Table 1 shape.
func genReviews(ont *osars.Ontology, seed int64, id string, n int) []server.RawReview {
	cfg := dataset.DoctorConfig(seed)
	cfg.NumItems, cfg.TotalReviews, cfg.MinReviews, cfg.MaxReviews = 1, n, n, n
	raw := dataset.GenerateWithOntology(cfg, ont).Items[0].Reviews
	out := make([]server.RawReview, len(raw))
	for i, r := range raw {
		out[i] = server.RawReview{ID: fmt.Sprintf("%s-r%05d", id, i), Text: r.Text, Rating: r.Rating}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and strings are marshalled
	}
	return b
}

// genColdSummarize builds the stateless workload: one client POSTing
// whole items to /v1/summarize.
func genColdSummarize(ont *osars.Ontology, seed int64, seconds int) *inputs {
	in := &inputs{Clients: 1, Variants: coldVariants}
	sizes, perm := tableOneSizes(coldItems), fixedPerm(coldItems)
	bodies := make([][]byte, coldItems)
	for i := 0; i < coldItems; i++ {
		id := fmt.Sprintf("doc-%04d", i)
		rv := genReviews(ont, subSeed(seed, "cold", i), id, sizes[perm[i]])
		it := fixture{ID: id, Name: "Dr. " + id, Reviews: rv, Initial: len(rv)}
		in.Items = append(in.Items, it)
		in.Owner = append(in.Owner, 0)
		v := coldVariants[0]
		bodies[i] = mustJSON(server.SummarizeRequest{
			ItemID: it.ID, ItemName: it.Name, Reviews: rv, K: v.K, Granularity: v.Gran, Method: "greedy",
		})
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "cold-stream", 0)))
	var order []int
	next := func() request {
		if len(order) == 0 {
			order = rng.Perm(coldItems)
		}
		i := order[0]
		order = order[1:]
		return request{Kind: kindSummarize, Item: int32(i), Reviews: int32(len(in.Items[i].Reviews)), Body: bodies[i]}
	}
	warm := make([]request, coldWarmup)
	for i := range warm {
		warm[i] = next()
	}
	timed := make([]request, seconds*coldRate/rounds)
	for i := range timed {
		timed[i] = next()
	}
	for _, i := range rng.Perm(len(timed))[:min(coldChecks, len(timed))] {
		timed[i].Check = true
	}
	in.Warmup, in.Timed = [][]request{warm}, [][]request{timed}
	in.buildURLs()
	return in
}

// planned is one request of a stateful op stream before its body exists.
type planned struct {
	kind    kind
	item    int
	variant uint8
	add     int // reviews appended (kindAppend)
}

// genIngestFollow builds the durable write workload: two clients, each
// owning half the items, each op appending 1–3 reviews to one of its
// items and then reading that item's summary.
func genIngestFollow(ont *osars.Ontology, seed int64, seconds int) *inputs {
	const clients = 2
	owner := make([]int, followItems)
	initial := make([]int, followItems)
	for i := range owner {
		owner[i], initial[i] = i%clients, followInitial
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "follow-stream", 0)))
	plan := func(pairs int) [][]planned {
		out := make([][]planned, clients)
		for c := range out {
			own := ownedBy(owner, c)
			for p := 0; p < pairs; p++ {
				it := own[rng.Intn(len(own))]
				out[c] = append(out[c],
					planned{kind: kindAppend, item: it, add: 1 + rng.Intn(followMaxBatch)},
					planned{kind: kindSummary, item: it})
			}
		}
		return out
	}
	warm := plan(followWarmup)
	timedPairs := seconds * followRate / rounds
	timed := plan(timedPairs / clients)
	in := buildStateful(ont, seed, "follow", clients, initial, owner, followVariants, warm, timed, followChecks, rng)
	// Size the WAL tail so that recovery's replayed records, the warm-up
	// appends and half the timed appends make up one snapshot interval:
	// the default snapshot then runs in the middle of every timed phase.
	tail := snapshotEvery - clients*followWarmup - timedPairs/2
	in.WALTail = min(max(tail/followItems, 1), followInitial/2)
	return in
}

// genReadMostly builds the cached read workload: two clients with
// disjoint items; 95% summary reads of Zipf-popular items over nine (k,
// granularity) variants and 5% single-review appends.
func genReadMostly(ont *osars.Ontology, seed int64, seconds int) *inputs {
	const clients = 2
	sizes, perm := tableOneSizes(readItems), fixedPerm(readItems)
	owner := make([]int, readItems)
	initial := make([]int, readItems)
	for i := range owner {
		owner[i], initial[i] = i%clients, sizes[perm[i]]
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "read-stream", 0)))
	plan := func(perClient int) [][]planned {
		out := make([][]planned, clients)
		for c := range out {
			own := ownedBy(owner, c) // own[r] is the client's rank-r item
			zipf := rand.NewZipf(rng, readZipfS, 1, uint64(len(own)-1))
			for n := 0; n < perClient; n++ {
				if rng.Float64() < readWriteShare {
					// Writes land uniformly: most hit cold items, some
					// invalidate hot keys. Zipf writes would make the
					// invalidated hot keys the main source of misses.
					out[c] = append(out[c], planned{kind: kindAppend, item: own[rng.Intn(len(own))], add: 1})
				} else {
					out[c] = append(out[c], planned{kind: kindSummary, item: own[zipf.Uint64()], variant: uint8(rng.Intn(len(readVariants)))})
				}
			}
		}
		return out
	}
	warm := plan(readWarmup)
	timed := plan(seconds * readRate / clients / rounds)
	in := buildStateful(ont, seed, "read", clients, initial, owner, readVariants, warm, timed, readChecks, rng)
	in.Preload = make([][]byte, len(in.Items))
	for i, it := range in.Items {
		in.Preload[i] = mustJSON(server.AppendReviewsRequest{ItemName: it.Name, Reviews: it.Reviews[:it.Initial]})
	}
	return in
}

// ownedBy lists the items a client owns, in item order.
func ownedBy(owner []int, client int) []int {
	var own []int
	for i, c := range owner {
		if c == client {
			own = append(own, i)
		}
	}
	return own
}

// buildStateful generates every item's reviews (its initial corpus plus
// everything the plan appends) and turns the plans into requests. Each
// item belongs to one client, so its append order, and with it every
// expected summary, is fixed by the plan whatever the interleaving.
func buildStateful(ont *osars.Ontology, seed int64, stream string, clients int, initial, owner []int,
	variants []variant, warm, timed [][]planned, checks int, rng *rand.Rand) *inputs {
	in := &inputs{Clients: clients, Owner: owner, Variants: variants}
	extra := make([]int, len(initial))
	for _, p := range append(append([][]planned{}, warm...), timed...) {
		for _, op := range p {
			extra[op.item] += op.add
		}
	}
	cursor := make([]int, len(initial))
	for i := range initial {
		id := fmt.Sprintf("%s-%04d", stream, i)
		rv := genReviews(ont, subSeed(seed, stream, i), id, initial[i]+extra[i])
		in.Items = append(in.Items, fixture{ID: id, Name: "Dr. " + id, Reviews: rv, Initial: initial[i]})
		cursor[i] = initial[i]
	}
	materialize := func(plans [][]planned) [][]request {
		out := make([][]request, clients)
		for c, p := range plans {
			out[c] = make([]request, len(p))
			for j, op := range p {
				rq := request{Kind: op.kind, Item: int32(op.item), Variant: op.variant, Added: uint8(op.add)}
				if op.kind == kindAppend {
					it := &in.Items[op.item]
					rq.Body = mustJSON(server.AppendReviewsRequest{Reviews: it.Reviews[cursor[op.item] : cursor[op.item]+op.add]})
					cursor[op.item] += op.add
				}
				rq.Reviews = int32(cursor[op.item])
				out[c][j] = rq
			}
		}
		return out
	}
	in.Warmup, in.Timed = materialize(warm), materialize(timed)

	// Oracle sample: mostly summary reads, plus a quarter as many appends.
	var reads, writes [][2]int
	for c, rqs := range in.Timed {
		for j := range rqs {
			if rqs[j].Kind == kindSummary {
				reads = append(reads, [2]int{c, j})
			} else {
				writes = append(writes, [2]int{c, j})
			}
		}
	}
	for _, pick := range []struct {
		from [][2]int
		n    int
	}{{reads, checks}, {writes, checks / 4}} {
		for _, i := range rng.Perm(len(pick.from))[:min(pick.n, len(pick.from))] {
			in.Timed[pick.from[i][0]][pick.from[i][1]].Check = true
		}
	}
	in.buildURLs()
	return in
}
