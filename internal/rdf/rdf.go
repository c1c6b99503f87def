// Package rdf provides the triple data model and N-Triples I/O.
//
// Terms are kept in their N-Triples surface syntax: IRIs include the
// surrounding angle brackets, literals include quotes and any datatype or
// language tag, blank nodes keep the "_:" prefix. This makes the dictionary
// encoding trivially lossless and avoids a parallel term model.
package rdf

// Triple is a single RDF statement. Each field is a term in N-Triples
// syntax (see package comment). It is the one triple type of the module:
// the public parj.Triple and the /write wire form are aliases of it, and its
// JSON form is {"s","p","o"}.
type Triple struct {
	S string `json:"s"`
	P string `json:"p"`
	O string `json:"o"`
}

// TermKind classifies a term string.
type TermKind int

const (
	// IRI is an IRI reference such as <http://example.org/a>.
	IRI TermKind = iota
	// BlankNode is a blank node label such as _:b0.
	BlankNode
	// Literal is a literal such as "x", "x"@en or "1"^^<...#integer>.
	Literal
	// Invalid is anything else.
	Invalid
)

// KindOf reports the kind of a term in N-Triples syntax.
func KindOf(term string) TermKind {
	if len(term) == 0 {
		return Invalid
	}
	switch {
	case term[0] == '<' && term[len(term)-1] == '>':
		return IRI
	case len(term) > 2 && term[0] == '_' && term[1] == ':':
		return BlankNode
	case term[0] == '"':
		return Literal
	default:
		return Invalid
	}
}

// NewIRI wraps a bare IRI string in angle brackets.
func NewIRI(iri string) string { return "<" + iri + ">" }

// NewLiteral quotes a plain literal, escaping special characters.
func NewLiteral(value string) string { return `"` + escapeLiteral(value) + `"` }

// NewTypedLiteral quotes a literal and attaches a datatype IRI.
func NewTypedLiteral(value, datatypeIRI string) string {
	return `"` + escapeLiteral(value) + `"^^<` + datatypeIRI + `>`
}

func escapeLiteral(s string) string {
	// Fast path: nothing to escape.
	clean := true
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"', '\\', '\n', '\r', '\t':
			clean = false
		}
	}
	if clean {
		return s
	}
	buf := make([]byte, 0, len(s)+8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, c)
		}
	}
	return string(buf)
}
