package store

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/jsonscan"
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
