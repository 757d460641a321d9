package store

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/jsonscan"
	"osars/internal/model"
	"osars/internal/ontology"
	"osars/internal/ontoreg"
	"osars/internal/wal"
)

// snapshotEdgeCases are payloads on which decodeSnapshot must agree
// with json.Unmarshal, each on a rule the decoder keeps.
var snapshotEdgeCases = []string{
	// A legacy item: no raws, no ann_ver.
	`{"schema":"osars-store-snapshot/v1","last_seq":3,"next_gen":2,"appends":3,"items":[{"id":"p1","gen":2,"num_sentences":1,"num_pairs":1,"created_at":"2024-01-02T03:04:05Z","updated_at":"2024-01-02T03:04:05.123456789+02:00","item":{"id":"p1","name":"Acme","reviews":[{"id":"r1","rating":0.5,"sentences":[{"text":"The screen is excellent.","pairs":[{"concept":3,"sentiment":0.8}]}]}]}}]}`,
	// Keys: other cases and orders, the long s folding to s, the
	// Kelvin sign to k, escaped keys.
	`{"ITEMS":[{"Item":{"Reviews":[{"Sentences":[{"Pairs":[{"SENTIMENT":-1,"Concept":7}],"TEXT":"t"}],"RATING":1,"Id":"r"}],"NAME":"n","ID":"i"},"Raws":[{"Rating":1,"TEXT":"x","iD":"r"}],"ANN_VER":"v","Updated_At":"2024-01-02T03:04:05Z","CREATED_AT":"2024-01-02T03:04:05Z","NUM_PAIRS":1,"Num_Sentences":2,"GEN":3,"Id":"i"}],"ACTIVATIONS":1,"Active_Entry":{},"APPENDS":1,"Next_Gen":1,"LAST_SEQ":1,"Schema":"s"}`,
	"{\"\u017fchema\":\"a\",\"item\u017f\":[{\"item\":{\"review\u017f\":[{\"\u017fentence\u017f\":[{\"pair\u017f\":[{\"concept\":1}]}]}]}}]}",
	"{\"\u212aey\":1,\"schem\\u0061\":\"b\",\"\\u0069tems\":[]}",
	// Duplicate keys: the last wins, decoding into what the earlier
	// one left.
	`{"schema":"a","schema":"b","last_seq":1,"last_seq":2,"active_entry":{"a":1},"active_entry":[1]}`,
	`{"items":[{"id":"a","item":{"id":"x","reviews":[{"id":"r1","rating":1},{"id":"r2"}]}}],"items":[{"item":{"reviews":[{"sentences":[]}]}}]}`,
	`{"items":[{"item":{"id":"a","reviews":[{"id":"r"}]},"item":{"name":"b"}}]}`,
	`{"items":[{"item":{"id":"a"},"item":null,"item":{"name":"b"}}]}`,
	`{"items":[{"raws":[{"id":"a","text":"x"},{"id":"b"}],"raws":[{"rating":2}]}]}`,
	`{"items":[{"item":{"reviews":[{"sentences":[{"text":"a","pairs":[{"concept":1},{"concept":2}]}]}]}}],"items":[{"item":{"reviews":[{"sentences":[{"pairs":[{"sentiment":1}]}]}]}}]}`,
	// Unknown keys: validated, then skipped.
	`{"extra":{"a":[1,2.5e-3,{"b":null,"c":[true,false]}],"d":"é"},"items":[{"zzz":1,"item":{"qq":[],"reviews":[{"xx":"y","sentences":[{"pp":1,"pairs":[{"c":1,"concept":2}]}]}]},"raws":[{"extra":true}]}]}`,
	`{"extra":{"a":[1,2,}]}}`,
	// null for every field, and [] against null.
	`{"schema":null,"last_seq":null,"next_gen":null,"appends":null,"active_entry":null,"activations":null,"items":null}`,
	`{"items":[null,{"id":null,"gen":null,"num_sentences":null,"num_pairs":null,"created_at":null,"updated_at":null,"item":null,"ann_ver":null,"raws":null}]}`,
	`{"items":[{"item":{"id":null,"name":null,"reviews":[null,{"id":null,"rating":null,"sentences":[null,{"text":null,"pairs":[null,{"concept":null,"sentiment":null}]}]}]},"raws":[null,{"id":null,"text":null,"rating":null}]}]}`,
	`{"items":[{"item":{"reviews":null}}]}`, `{"items":[{"item":{"reviews":[]}}]}`,
	`{"items":[]}`, `{"items":[{"raws":[],"item":{"reviews":[{"sentences":[{"pairs":[]}]}]}}]}`,
	`{"items":[{"item":{"reviews":[{"id":"a"}]},"raws":[{"id":"a"}]}],"items":null}`,
	// active_entry keeps its value's bytes.
	`{"active_entry":null}`, `{"active_entry":"x\u0041"}`, `{"active_entry": 5 }`, `{"active_entry":[ 1 , {"a" : null} ]}`,
	`{"active_entry":tru}`,
	// Integers at and past their type's range.
	`{"last_seq":18446744073709551615,"next_gen":0,"appends":1}`,
	`{"last_seq":18446744073709551616}`, `{"last_seq":-1}`, `{"last_seq":-0}`, `{"last_seq":1.0}`, `{"last_seq":1e2}`,
	`{"activations":"1"}`, `{"next_gen":true}`,
	`{"items":[{"num_sentences":9223372036854775807,"num_pairs":-9223372036854775808}]}`,
	`{"items":[{"num_sentences":9223372036854775808}]}`, `{"items":[{"num_pairs":-9223372036854775809}]}`,
	`{"items":[{"num_pairs":-0}]}`, `{"items":[{"num_pairs":2.5}]}`,
	`{"items":[{"item":{"reviews":[{"sentences":[{"pairs":[{"concept":2147483647},{"concept":-2147483648}]}]}]}}]}`,
	`{"items":[{"item":{"reviews":[{"sentences":[{"pairs":[{"concept":2147483648}]}]}]}}]}`,
	`{"items":[{"item":{"reviews":[{"sentences":[{"pairs":[{"concept":-2147483649}]}]}]}}]}`,
	`{"items":[{"item":{"reviews":[{"rating":1e308,"sentences":[{"pairs":[{"sentiment":-1e-400}]}]}]}}]}`,
	`{"items":[{"item":{"reviews":[{"rating":1e309}]}}]}`, `{"items":[{"raws":[{"rating":-1.5e-323}]}]}`,
	// Timestamps go through time.Time's UnmarshalJSON.
	`{"items":[{"created_at":"2024-01-02T03:04:05Z","updated_at":"2024-01-02T03:04:05-07:00"}]}`,
	`{"items":[{"created_at":"bad"}]}`, `{"items":[{"created_at":5}]}`, `{"items":[{"created_at":{}}]}`,
	`{"items":[{"created_at":[]}]}`, `{"items":[{"updated_at":"2024-01-02T03:04:05\u005a"}]}`,
	`{"items":[{"updated_at":"2024-13-02T03:04:05Z"}]}`, `{"items":[{"created_at":"2024-01-02T03:04:05Z","created_at":null}]}`,
	// Values of the wrong type.
	`{"schema":5}`, `{"items":{}}`, `{"items":[1]}`, `{"items":[{"item":5}]}`, `{"items":[{"item":[]}]}`,
	`{"items":[{"raws":{}}]}`, `{"items":[{"item":{"reviews":[{"sentences":"x"}]}}]}`,
	// Strings: HTML characters, U+2028, invalid UTF-8, escapes.
	`{"schema":"<a href=\"x\">&amp;</a>\u003c\u003e\u0026"}`,
	"{\"schema\":\"line\u2028sep\u2029\",\"items\":[{\"id\":\"\\u2028\"}]}",
	"{\"schema\":\"a\xffb\",\"items\":[{\"item\":{\"name\":\"\xed\xa0\x80\",\"reviews\":[{\"sentences\":[{\"text\":\"caf\xc3\xa9 \xc3\"}]}]}}]}",
	`{"schema":"a\"b\\c\/d\b\f\n\r\té\u0000\ud83d\ude00\ud83d"}`,
	"{\"schema\":\"a\x01b\"}", `{"schema":"\x"}`, `{"schema":"\u12G4"}`,
	// Top level and trailing bytes.
	`null`, " \n null \t", `{}`, `[]`, `""`, `5`, ``, ` `, `{`, `}`, "\xef\xbb\xbf{}",
	`{"schema":"x"} `, `{"schema":"x"}x`, `{"schema":"x"}{}`, `{} null`, `nullx`,
	// Syntax.
	`{"schema":"x",}`, `{,}`, `{"schema"}`, `{"schema":}`, `{schema:1}`, `{"items":[1,]}`, `{"items":[,1]}`,
}

// nestedSnapshot returns a snapshot payload whose deepest value sits
// depth levels down: an unknown key's arrays inside a pair.
func nestedSnapshot(depth int) string {
	const head = `{"items":[{"item":{"reviews":[{"sentences":[{"pairs":[{"x":`
	open := strings.Count(head, "{") + strings.Count(head, "[")
	return head + strings.Repeat("[", depth-open) + strings.Repeat("]", depth-open) + `}]}]}]}}]}`
}

// realSnapshots returns the payloads of two snapshots a store writes:
// one of a phone store with an ontology activation and strings that
// need escaping, and one of a store whose only item was deleted.
func realSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	runtime := func(eps float64) *ontoreg.Runtime {
		e, err := ontoreg.NewEntry("phone", dataset.CellPhoneOntology(), nil, eps)
		if err != nil {
			tb.Fatal(err)
		}
		return e.Runtime()
	}
	snapshot := func(fill func(s *Store) error) []byte {
		dir := tb.TempDir()
		s, err := New(Config{Runtime: runtime(0.5), DataDir: dir, SnapshotEvery: -1})
		if err != nil {
			tb.Fatal(err)
		}
		if err := fill(s); err != nil {
			tb.Fatal(err)
		}
		if err := s.Close(); err != nil {
			tb.Fatal(err)
		}
		payload, _, ok, err := wal.LoadLatestSnapshot(dir)
		if err != nil || !ok {
			tb.Fatalf("no snapshot: %v", err)
		}
		return payload
	}
	phone := snapshot(func(s *Store) error {
		if _, err := s.AppendReviews("p1", "Acme", phoneReviews); err != nil {
			return err
		}
		if err := s.ActivateOntology(runtime(0.9)); err != nil {
			return err
		}
		_, err := s.AppendReviews("p2", "Bolt <&> \u2028", []extract.RawReview{
			{ID: "q\"1", Text: "The screen is \"excellent\" <b>&</b>.\nThe battery\u2029 is awful\\.", Rating: -0.5},
			{ID: "q2", Text: "Great camera and a decent price. caf\xc3 \xff", Rating: 1},
		})
		return err
	})
	empty := snapshot(func(s *Store) error {
		if _, err := s.AppendReviews("p1", "Acme", phoneReviews[:1]); err != nil {
			return err
		}
		_, err := s.Delete("p1")
		return err
	})
	return [][]byte{phone, empty}
}

// FuzzDecodeSnapshot holds decodeSnapshot to json.Unmarshal: on every
// input both decode the same snapFile, or both fail.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, b := range realSnapshots(f) {
		f.Add(b)
	}
	for _, c := range snapshotEdgeCases {
		f.Add([]byte(c))
	}
	for _, depth := range []int{jsonscan.MaxDepth, jsonscan.MaxDepth + 1} {
		f.Add([]byte(nestedSnapshot(depth)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var got, want snapFile
		err := decodeSnapshot(b, &got)
		wantErr := json.Unmarshal(b, &want)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("%q: decodeSnapshot error %v, json.Unmarshal error %v", b, err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%q: decodeSnapshot gave\n%#v\njson.Unmarshal gave\n%#v", b, got, want)
		}
	})
}

var snapshotSink snapFile

// BenchmarkDecodeSnapshot decodes the snapshot of the ingest-follow
// directory (writeFollowDir) by json.Unmarshal and by decodeSnapshot.
func BenchmarkDecodeSnapshot(b *testing.B) {
	_, snapOnly := writeFollowDir(b)
	payload, _, ok, err := wal.LoadLatestSnapshot(snapOnly)
	if err != nil || !ok {
		b.Fatalf("no snapshot: %v", err)
	}
	for _, dec := range []struct {
		name   string
		decode func([]byte, *snapFile) error
	}{
		{"encoding-json", func(p []byte, snap *snapFile) error { return json.Unmarshal(p, snap) }},
		{"scanner", decodeSnapshot},
	} {
		b.Run(dec.name, func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var snap snapFile
				if err := dec.decode(payload, &snap); err != nil {
					b.Fatal(err)
				}
				snapshotSink = snap
			}
		})
	}
}

// loggedSnapFile is a snapFile whose items hold their raws in their
// logged form, walReview's: json.Marshal of one is the payload
// writeSnapshot must write. The outer Items and Raws hide the embedded
// ones and are ordered after their fields, where the hidden ones were.
type loggedSnapFile struct {
	snapFile
	Items []loggedSnapItem `json:"items"`
}

type loggedSnapItem struct {
	snapItem
	Raws []walReview `json:"raws,omitempty"`
}

// marshalSnapshot is json.Marshal of snap with its raws logged, the
// payload the store wrote before writeSnapshot.
func marshalSnapshot(snap *snapFile) ([]byte, error) {
	logged := loggedSnapFile{snapFile: *snap}
	if snap.Items != nil {
		logged.Items = make([]loggedSnapItem, len(snap.Items))
	}
	for i, it := range snap.Items {
		logged.Items[i].snapItem = it
		logged.Items[i].Raws = loggedRaws(it.Raws)
	}
	return json.Marshal(&logged)
}

// requireWriterMatchesMarshal writes snap with writeSnapshot and holds
// the bytes to marshalSnapshot's, or the error to Marshal's, and the
// bytes decoded by decodeSnapshot to snap as Marshal's rules leave it.
// It leaves snap in that form.
func requireWriterMatchesMarshal(t *testing.T, snap *snapFile) {
	t.Helper()
	want, wantErr := marshalSnapshot(snap)
	var got bytes.Buffer
	err := writeSnapshot(&got, snap)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("writeSnapshot error %v, json.Marshal error %v", err, wantErr)
	case err != nil:
		return
	case !bytes.Equal(got.Bytes(), want):
		i := 0
		for i < min(got.Len(), len(want)) && got.Bytes()[i] == want[i] {
			i++
		}
		t.Fatalf("writeSnapshot differs from json.Marshal at byte %d:\n%q\n%q", i, got.Bytes()[i:min(got.Len(), i+80)], want[i:min(len(want), i+80)])
	}
	var back snapFile
	if err := decodeSnapshot(got.Bytes(), &back); err != nil {
		t.Fatalf("decodeSnapshot of the written snapshot: %v", err)
	}
	asMarshaled(t, snap, &back)
	if !reflect.DeepEqual(&back, snap) {
		t.Fatalf("decodeSnapshot read back\n%#v\nwrote\n%#v", back, *snap)
	}
}

// asMarshaled rewrites snap as Marshal writes it and decodeSnapshot
// reads it back: strings with each byte of invalid UTF-8 U+FFFD,
// active_entry compacted, and omitempty slices that are empty nil.
// Timestamps are compared with back's by their text and then
// cleared in both, as their locations need not be the same pointers.
func asMarshaled(t *testing.T, snap, back *snapFile) {
	t.Helper()
	valid := func(s *string) { *s = string([]rune(*s)) }
	valid(&snap.Schema)
	if len(snap.ActiveEntry) == 0 {
		snap.ActiveEntry = nil
	} else {
		snap.ActiveEntry, _ = json.Marshal(snap.ActiveEntry)
	}
	if len(snap.Items) != len(back.Items) {
		return
	}
	for i := range snap.Items {
		it := &snap.Items[i]
		for _, ts := range [][2]*time.Time{{&it.CreatedAt, &back.Items[i].CreatedAt}, {&it.UpdatedAt, &back.Items[i].UpdatedAt}} {
			w, _ := ts[0].MarshalJSON()
			if g, _ := ts[1].MarshalJSON(); !bytes.Equal(g, w) {
				t.Fatalf("item %d: timestamp %s read back as %s", i, w, g)
			}
			*ts[0], *ts[1] = time.Time{}, time.Time{}
		}
		valid(&it.ID)
		valid(&it.AnnVer)
		if it.Item != nil {
			valid(&it.Item.ID)
			valid(&it.Item.Name)
			for j := range it.Item.Reviews {
				r := &it.Item.Reviews[j]
				valid(&r.ID)
				for k := range r.Sentences {
					valid(&r.Sentences[k].Text)
					if len(r.Sentences[k].Pairs) == 0 {
						r.Sentences[k].Pairs = nil
					}
				}
			}
		}
		if len(it.Raws) == 0 {
			it.Raws = nil
		}
		for j := range it.Raws {
			valid(&it.Raws[j].ID)
			valid(&it.Raws[j].Text)
		}
	}
}

// snapGen draws a snapshot from a fuzz input, one byte per choice, and
// zeros once the input runs out.
type snapGen struct {
	in []byte
	// badFloat and badTime count down the floats and timestamps drawn
	// to the one json.Marshal refuses; 0 draws none.
	badFloat, badTime int
}

func (g *snapGen) next() byte {
	if len(g.in) == 0 {
		return 0
	}
	c := g.in[0]
	g.in = g.in[1:]
	return c
}

func (g *snapGen) intn(n int) int { return int(g.next()) % n }

// u64 draws 0 to 8 bytes, so small and full-range values both come.
func (g *snapGen) u64() uint64 {
	var v uint64
	for k := g.intn(9); k > 0; k-- {
		v = v<<8 | uint64(g.next())
	}
	return v
}

// strPieces are what drawn strings are made of: ASCII runs of several
// lengths, so the others fall at every offset of an 8-byte word, and
// everything a JSON writer escapes or replaces.
var strPieces = []string{
	"a", "bc", "defghij", "klmnopqrstuvwxyz", " ", `"`, `\`, "<", ">", "&", "/",
	"\x00", "\x01", "\x1f", "\n", "\r", "\t", "\b", "\f", "\x7f",
	"\u00e9", "\u2028", "\u2029", "\ufffd", "\U0001F600",
	"\xff", "\x80", "\xc3", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}

func (g *snapGen) str() string {
	var sb strings.Builder
	for n := g.intn(8); n > 0; n-- {
		sb.WriteString(strPieces[g.intn(len(strPieces))])
	}
	return sb.String()
}

// floatPicks are the floats drawn by name: both signs of zero, the
// ends of the range and of each format json.Marshal switches between.
var floatPicks = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-7, 9.999999999999999e-7, 1e-6,
	0.1, -0.5, 0.30000000000000004, 1, -1, 123456789.125, 1e20, 1e21, math.MaxFloat64, -math.MaxFloat64,
}

func (g *snapGen) float() float64 {
	if g.badFloat > 0 {
		if g.badFloat--; g.badFloat == 0 {
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.intn(3)]
		}
	}
	switch i := g.intn(len(floatPicks) + 2); {
	case i < len(floatPicks):
		return floatPicks[i]
	case i == len(floatPicks):
		return float64(int8(g.next())) / 8 // few distinct values, as sentiments are
	}
	var bits uint64
	for k := 0; k < 8; k++ {
		bits = bits<<8 | uint64(g.next())
	}
	if f := math.Float64frombits(bits); jsonscan.Finite(f) {
		return f
	}
	return 0
}

var snapZones = []*time.Location{time.UTC, time.FixedZone("", 5*3600+30*60), time.FixedZone("", -7*3600), time.FixedZone("X", 3600)}

func (g *snapGen) time() time.Time {
	if g.badTime > 0 {
		if g.badTime--; g.badTime == 0 {
			return []time.Time{
				time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
				time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
				time.Date(2024, 1, 2, 3, 4, 5, 0, time.FixedZone("", 24*3600)),
			}[g.intn(3)]
		}
	}
	sec := int64(g.u64()%(253402300799+62135596800)) - 62135596800 // years 0 to 9999
	nsec := int64(0)
	if g.intn(2) == 1 {
		nsec = int64(g.u64() % 1e9)
	}
	return time.Unix(sec, nsec).In(snapZones[g.intn(len(snapZones))])
}

// snapSlice draws nil, an empty slice or a few elements.
func snapSlice[T any](g *snapGen, elem func() T) []T {
	switch n := g.intn(5); n {
	case 0:
		return nil
	case 1:
		return []T{}
	default:
		out := make([]T, n-1)
		for i := range out {
			out[i] = elem()
		}
		return out
	}
}

// snapActiveEntries are the active entries drawn: none, empty, null,
// compact and spaced objects (with HTML characters to escape), and
// values json.Marshal refuses.
var snapActiveEntries = []string{"", "", "null", `{"name":"phone","eps":0.5}`, "{ \"a\" : [1, 2.5e-7, \"<b>&\u2028\"] }\n", `{"a":`, `[1,]`}

func (g *snapGen) snapshot() snapFile {
	switch g.intn(8) {
	case 0:
		g.badFloat = 1 + g.intn(64)
	case 1:
		g.badTime = 1 + g.intn(4)
	}
	snap := snapFile{Schema: g.str(), LastSeq: g.u64(), NextGen: g.u64(), Appends: g.u64()}
	if e := snapActiveEntries[g.intn(len(snapActiveEntries))]; e != "" || g.intn(2) == 1 {
		snap.ActiveEntry = json.RawMessage(e)
	}
	if g.intn(2) == 1 {
		snap.Activations = g.u64()
	}
	snap.Items = snapSlice(g, func() snapItem {
		it := snapItem{ID: g.str(), Gen: g.u64(), NumSentences: int(int64(g.u64())), NumPairs: int(int64(g.u64())),
			CreatedAt: g.time(), UpdatedAt: g.time(), AnnVer: g.str()}
		if g.intn(4) > 0 {
			it.Item = &model.Item{ID: g.str(), Name: g.str(), Reviews: snapSlice(g, func() model.Review {
				return model.Review{ID: g.str(), Rating: g.float(), Sentences: snapSlice(g, func() model.Sentence {
					return model.Sentence{Text: g.str(), Pairs: snapSlice(g, func() model.Pair {
						return model.Pair{Concept: ontology.ConceptID(int32(g.u64())), Sentiment: g.float()}
					})}
				})}
			})}
		}
		it.Raws = snapSlice(g, func() extract.RawReview { return extract.RawReview{ID: g.str(), Text: g.str(), Rating: g.float()} })
		return it
	})
	return snap
}

// FuzzEncodeSnapshot holds writeSnapshot to json.Marshal on two
// snapshots per input: the input decoded, when it is one, and one drawn
// from its bytes by snapGen.
func FuzzEncodeSnapshot(f *testing.F) {
	for _, b := range realSnapshots(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var snap snapFile
		if decodeSnapshot(b, &snap) == nil {
			requireWriterMatchesMarshal(t, &snap)
		}
		g := snapGen{in: b}
		drawn := g.snapshot()
		requireWriterMatchesMarshal(t, &drawn)
	})
}

// marshalStore is the payload of a snapshot of s as the store wrote it
// before writeSnapshot: marshalSnapshot of every item, sorted by ID.
func marshalStore(t *testing.T, s *Store) []byte {
	t.Helper()
	s.mu.RLock()
	snap := snapFile{
		Schema:      snapSchema,
		LastSeq:     s.appliedSeq,
		NextGen:     s.nextGen,
		Appends:     s.appends.Load(),
		ActiveEntry: s.rt.Load().Payload,
		Activations: s.activations.Load(),
		Items:       []snapItem{},
	}
	for id, e := range s.items {
		snap.Items = append(snap.Items, snapItem{ID: id, Gen: e.gen, NumSentences: e.numSentences, NumPairs: e.numPairs,
			CreatedAt: e.createdAt, UpdatedAt: e.updatedAt, Item: e.item, AnnVer: e.annVer, Raws: e.raws})
	}
	s.mu.RUnlock()
	sort.Slice(snap.Items, func(i, j int) bool { return snap.Items[i].ID < snap.Items[j].ID })
	payload, err := marshalSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestSnapshotWriterMatchesMarshal snapshots the store of the
// ingest-follow directory (writeFollowDir), a payload of over a hundred
// chunks, and compares it byte for byte with json.Marshal's.
func TestSnapshotWriterMatchesMarshal(t *testing.T) {
	full, _ := writeFollowDir(t)
	cfg := followConfig()
	cfg.DataDir, cfg.SnapshotEvery = full, -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := marshalStore(t, s)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	got, _, ok, err := wal.LoadLatestSnapshot(full)
	if err != nil || !ok {
		t.Fatalf("no snapshot: %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("snapshot of %d bytes differs from json.Marshal's %d at byte %d", len(got), len(want), i)
	}
}

// BenchmarkEncodeSnapshot writes the snapshot BenchmarkDecodeSnapshot
// decodes by json.Marshal of its logged form (marshalSnapshot, as the
// store wrote it before writeSnapshot) and by writeSnapshot, into
// io.Discard.
func BenchmarkEncodeSnapshot(b *testing.B) {
	_, snapOnly := writeFollowDir(b)
	payload, _, ok, err := wal.LoadLatestSnapshot(snapOnly)
	if err != nil || !ok {
		b.Fatalf("no snapshot: %v", err)
	}
	var snap snapFile
	if err := decodeSnapshot(payload, &snap); err != nil {
		b.Fatal(err)
	}
	for _, enc := range []struct {
		name   string
		encode func(io.Writer, *snapFile) error
	}{
		{"encoding-json", func(w io.Writer, snap *snapFile) error {
			p, err := marshalSnapshot(snap)
			if err == nil {
				_, err = w.Write(p)
			}
			return err
		}},
		{"writer", writeSnapshot},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := enc.encode(io.Discard, &snap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
