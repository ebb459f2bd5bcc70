package xmlutil

import (
	"encoding/json"
	"os"
	"testing"
)

// goldenForms is one document's pinned serializations.
type goldenForms struct {
	Marshal   string `json:"marshal"`
	Canonical string `json:"canonical"`
}

// goldenExtra adds shapes the differential corpus does not cover to the
// golden set: attributes spread over several namespaces (the canonical
// sort key is namespace then local name) and the benchmark envelope.
var goldenExtra = map[string]string{
	"attrs-multi-ns": `<a xmlns:p="urn:p" xmlns:q="urn:q" q:z="1" p:y="2" x="3" p:a="4"><q:b p:k="v" k="w"/></a>`,
	"soap-like-doc":  string(soapLikeDoc().Marshal()),
}

// goldenDocs returns every document the golden file pins, by name: the
// accepted half of the parse-differential corpus plus goldenExtra.
func goldenDocs() map[string]string {
	docs := map[string]string{}
	for _, c := range parseCorpus {
		if !c.wantErr {
			docs["corpus/"+c.name] = c.doc
		}
	}
	for name, doc := range goldenExtra {
		docs["extra/"+name] = doc
	}
	return docs
}

// TestGoldenWireFormat pins Marshal and Canonical to stored bytes.
// Signatures digest the canonical form and every peer parses the
// marshaled one, so any change to either output is a wire-format
// change, not a refactoring; testdata/golden.json must then be
// regenerated deliberately and the change called out.
func TestGoldenWireFormat(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenForms
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	docs := goldenDocs()
	if len(docs) != len(want) {
		t.Errorf("golden file has %d documents, test set has %d", len(want), len(docs))
	}
	for name, doc := range docs {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		el, err := Parse([]byte(doc))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := string(el.Marshal()); got != w.Marshal {
			t.Errorf("%s: Marshal\n got: %s\nwant: %s", name, got, w.Marshal)
		}
		if got := string(el.Canonical()); got != w.Canonical {
			t.Errorf("%s: Canonical\n got: %s\nwant: %s", name, got, w.Canonical)
		}
	}
}
