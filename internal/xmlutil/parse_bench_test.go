package xmlutil

import (
	"os"
	"testing"
)

// BenchmarkParse measures the inbound hot path: every request,
// response, notification, and database read funnels one document
// through Parse. The soap-like shape mirrors the envelopes the
// Figure 2-4 workloads put on the wire.
func BenchmarkParse(b *testing.B) {
	data := soapLikeDoc().Marshal()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseEscapeHeavy exercises the entity-decoding slow branch.
func BenchmarkParseEscapeHeavy(b *testing.B) {
	doc := soapLikeDoc()
	doc.Children[1].Children[0].Add(
		NewText("urn:counter", "note", `a < b && c > "d" — O'Reilly & sons, repeatedly & <again>`))
	data := doc.Marshal()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseGolden parses two of the SOAP golden files: the
// delivery request every consumer reads and the reply every caller
// reads.
func BenchmarkParseGolden(b *testing.B) {
	for _, name := range []string{"delivery-request", "reply"} {
		data, err := os.ReadFile("../soap/testdata/" + name + ".xml")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
