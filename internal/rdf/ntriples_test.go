package rdf

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleTriples(t *testing.T) {
	doc := `<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .
# a comment

<http://ex.org/a> <http://ex.org/q> "hello" .
_:b0 <http://ex.org/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex.org/c> <http://ex.org/r> "bonjour"@fr .
`
	got, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	want := []Triple{
		{"<http://ex.org/a>", "<http://ex.org/p>", "<http://ex.org/b>"},
		{"<http://ex.org/a>", "<http://ex.org/q>", `"hello"`},
		{"_:b0", "<http://ex.org/p>", `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{"<http://ex.org/c>", "<http://ex.org/r>", `"bonjour"@fr`},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v\nwant %v", got, want)
	}
}

func TestParseLiteralWithEscapes(t *testing.T) {
	doc := `<http://a> <http://p> "he said \"hi\" \\ \n end" .` + "\n"
	got, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(got) != 1 || got[0].O != `"he said \"hi\" \\ \n end"` {
		t.Fatalf("got %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"missing dot", `<http://a> <http://p> <http://b>` + "\n"},
		{"unterminated IRI", `<http://a <http://p> <http://b> .` + "\n"},
		{"literal subject", `"x" <http://p> <http://b> .` + "\n"},
		{"literal predicate", `<http://a> "p" <http://b> .` + "\n"},
		{"blank predicate", `<http://a> _:p <http://b> .` + "\n"},
		{"unterminated literal", `<http://a> <http://p> "x .` + "\n"},
		{"garbage", `hello world .` + "\n"},
		{"trailing junk", `<http://a> <http://p> <http://b> . extra` + "\n"},
		{"missing object", `<http://a> <http://p> .` + "\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseString(c.doc); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", c.doc)
			}
		})
	}
}

func TestParseErrorReportsLineNumber(t *testing.T) {
	doc := "<http://a> <http://p> <http://b> .\nbad line\n"
	_, err := ParseString(doc)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Errorf("Line = %d, want 2", pe.Line)
	}
}

func TestKindOf(t *testing.T) {
	cases := []struct {
		term string
		want TermKind
	}{
		{"<http://a>", IRI},
		{"_:b0", BlankNode},
		{`"lit"`, Literal},
		{`"lit"@en`, Literal},
		{"", Invalid},
		{"bare", Invalid},
	}
	for _, c := range cases {
		if got := KindOf(c.term); got != c.want {
			t.Errorf("KindOf(%q) = %v, want %v", c.term, got, c.want)
		}
	}
}

func TestConstructors(t *testing.T) {
	if got := NewIRI("http://x"); got != "<http://x>" {
		t.Errorf("NewIRI = %q", got)
	}
	if got := NewLiteral(`a"b`); got != `"a\"b"` {
		t.Errorf("NewLiteral = %q", got)
	}
	if got := NewTypedLiteral("7", "http://t"); got != `"7"^^<http://t>` {
		t.Errorf("NewTypedLiteral = %q", got)
	}
	if got := NewLiteral("plain"); got != `"plain"` {
		t.Errorf("NewLiteral(plain) = %q", got)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	in := []Triple{
		{"<http://a>", "<http://p>", "<http://b>"},
		{"_:n1", "<http://p>", `"x y z"`},
		{"<http://a>", "<http://q>", `"5"^^<http://www.w3.org/2001/XMLSchema#int>`},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, tr := range in {
		if err := w.Write(tr); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip: got %v want %v", got, in)
	}
}

func TestReadEOF(t *testing.T) {
	r := NewReader(strings.NewReader("# only comments\n\n"))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("Read = %v, want io.EOF", err)
	}
}

// Property: writing random triples built from the constructors and reading
// them back is the identity.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randTerm := func(obj bool) string {
		switch n := rng.Intn(3); {
		case n == 0 || !obj:
			return NewIRI("http://ex.org/r" + string(rune('a'+rng.Intn(26))))
		case n == 1:
			return NewLiteral(randomText(rng))
		default:
			return NewTypedLiteral(randomText(rng), "http://www.w3.org/2001/XMLSchema#string")
		}
	}
	f := func(n uint8) bool {
		triples := make([]Triple, int(n)%32)
		for i := range triples {
			triples[i] = Triple{
				S: randTerm(false),
				P: NewIRI("http://ex.org/p" + string(rune('a'+rng.Intn(5)))),
				O: randTerm(true),
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, tr := range triples {
			if err := w.Write(tr); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadAll()
		if err != nil {
			return false
		}
		if len(got) != len(triples) {
			return false
		}
		for i := range got {
			if got[i] != triples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randomText(rng *rand.Rand) string {
	chars := []byte(`abc "\ ` + "\n\tz")
	n := rng.Intn(12)
	out := make([]byte, n)
	for i := range out {
		out[i] = chars[rng.Intn(len(chars))]
	}
	return string(out)
}

// TestParseLinesMatchesReader: ParseLines yields the triples and the
// *ParseError Reader yields on the same text, counts its lines as Reader
// numbers them, and allocates nothing per line.
func TestParseLinesMatchesReader(t *testing.T) {
	docs := []string{
		"<a> <p> <b> .\n# comment\n\n_:x <p> \"1\"^^<http://t> .\r\n",
		"\t<a>\t<p>\t\"v\"@en .  \n<a> <p> <c> .",
		"<a> <p> <b> .\n\n<a> \"p\" <b> .\n<a> <p> .\n",
		"",
	}
	for _, doc := range docs {
		want, wantErr := ParseString(doc)
		var got []Triple
		lines, err := ParseLines(doc, func(t Triple) { got = append(got, t) })
		if !reflect.DeepEqual(err, wantErr) || wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseLines(%q) = %v, %v; Reader gives %v, %v", doc, got, err, want, wantErr)
		}
		if n := len(strings.Split(strings.TrimSuffix(doc, "\n"), "\n")); wantErr == nil && doc != "" && lines != n {
			t.Errorf("ParseLines(%q) counted %d lines, want %d", doc, lines, n)
		}
	}
	doc := docs[0] + docs[1]
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ParseLines(doc, func(Triple) {}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ParseLines allocated %.0f times, want 0", allocs)
	}
}
