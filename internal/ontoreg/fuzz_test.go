package ontoreg

import (
	"bytes"
	"encoding/json"
	"testing"

	"osars/internal/ontology"
)

// multiParentEntry is a valid entry whose DAG has a concept with two
// parents, synonyms, and a lexicon.
func multiParentEntry(tb testing.TB) *Entry {
	tb.Helper()
	var b ontology.Builder
	phone := b.AddConcept("phone", "device", "handset")
	screen := b.AddConcept("screen", "display")
	battery := b.AddConcept("battery")
	life := b.AddConcept("battery life", "endurance")
	brightness := b.AddConcept("screen brightness", "brightness")
	for _, e := range [][2]ontology.ConceptID{{phone, screen}, {phone, battery}, {battery, life}, {screen, brightness}, {battery, brightness}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			tb.Fatal(err)
		}
	}
	ont, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEntry("phone", ont, map[string]float64{"great": 0.9, "awful": -1, "okay": 0.1, "dim": -0.35}, 0.7)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// FuzzDecodeEntry holds the osars-ontology/v1 codec to its contract on
// any input: Decode never panics, and an entry it accepts decodes again
// from its canonical Payload to the same payload and Version, and
// compiles with Runtime.
func FuzzDecodeEntry(f *testing.F) {
	e := multiParentEntry(f)
	var indented bytes.Buffer
	if err := json.Indent(&indented, e.Payload(), "", "\t"); err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		e.Payload(),
		indented.Bytes(),
		entryDoc(nil),
		entryDoc(func(m map[string]any) { delete(m, "epsilon") }),
		entryDoc(func(m map[string]any) { m["lexicon"] = map[string]float64{"Great": 1, "great ": -1} }),
		entryDoc(func(m map[string]any) {
			m["ontology"] = map[string]any{"concepts": []map[string]any{
				{"name": "root"}, {"name": "a", "parents": []int{0, 2}}, {"name": "b", "parents": []int{1}},
			}}
		}),
		[]byte(`{"schema":"osars-ontology/v1","name":"x","ontology":{"concepts":[{"name":" Root ","synonyms":["ROOT","r"]},{"name":"a","parents":[0,0]}]}}`),
		[]byte(`{"schema":"osars-ontology/v1","name":"x","epsilon":1e-300,"ontology":{"concepts":[{"name":"root"}]},"lexicon":{"w":-0}}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(e.Payload())
		if err != nil {
			t.Fatalf("accepted %q, but its payload %q fails to decode: %v", data, e.Payload(), err)
		}
		if !bytes.Equal(again.Payload(), e.Payload()) || again.Version != e.Version {
			t.Fatalf("payload %q (version %s) decodes to payload %q (version %s)", e.Payload(), e.Version, again.Payload(), again.Version)
		}
		if rt := e.Runtime(); rt.Name != e.Name || rt.Version != e.Version || rt.Pipeline == nil || !bytes.Equal(rt.Payload, e.Payload()) {
			t.Fatalf("runtime %q@%q of entry %q@%q", rt.Name, rt.Version, e.Name, e.Version)
		}
	})
}
