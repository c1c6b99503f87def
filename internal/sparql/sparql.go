// Package sparql implements the SPARQL subset PARJ evaluates: SELECT
// queries over Basic Graph Patterns (§1 of the paper).
//
// Supported grammar:
//
//	query    := prefix* "SELECT" ("DISTINCT")? ("*" | var+) "WHERE" "{" bgp "}"
//	            ("ORDER" "BY" orderKey+)? ("LIMIT" int)? ("OFFSET" int)?
//	orderKey := var | "ASC" "(" var ")" | "DESC" "(" var ")"
//	prefix   := "PREFIX" pname ":" iri
//	bgp      := pattern ("." pattern)* (".")?
//	pattern  := term term term
//	term     := var | iri | prefixedName | literal | "a"
//
// Constants are kept in N-Triples surface syntax (IRIs keep their angle
// brackets), matching the dictionary encoding of package store.
package sparql

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"unicode"
)

// RDFType is the IRI the keyword "a" abbreviates.
const RDFType = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"

// Term is a variable or a constant in a triple pattern.
type Term struct {
	// Var holds the variable name without the leading '?'; empty for
	// constants.
	Var string
	// Value holds the constant in N-Triples syntax; empty for variables.
	Value string
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

func (t Term) String() string {
	if t.IsVar() {
		return "?" + t.Var
	}
	return t.Value
}

// Variable constructs a variable term.
func Variable(name string) Term { return Term{Var: name} }

// Constant constructs a constant term from N-Triples surface syntax.
func Constant(value string) Term { return Term{Value: value} }

// TriplePattern is one pattern of a BGP.
type TriplePattern struct {
	S, P, O Term
}

func (tp TriplePattern) String() string {
	return tp.S.String() + " " + tp.P.String() + " " + tp.O.String()
}

// Vars returns the distinct variable names of the pattern, in S,P,O order.
func (tp TriplePattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range []Term{tp.S, tp.P, tp.O} {
		if t.IsVar() && !seen[t.Var] {
			out = append(out, t.Var)
			seen[t.Var] = true
		}
	}
	return out
}

// Query is a parsed SELECT query.
type Query struct {
	// Select lists the projected variable names; nil with Star set for
	// SELECT *.
	Select   []string
	Star     bool
	Distinct bool
	Patterns []TriplePattern
	// Limit caps the number of result rows when HasLimit is set. LIMIT 0
	// is valid SPARQL and yields zero rows, hence the separate flag.
	Limit    int
	HasLimit bool
	// Offset skips that many rows (after ordering, before the limit).
	Offset int
	// OrderBy lists the sort keys, applied in order.
	OrderBy []OrderKey
}

// OrderKey is one ORDER BY sort key.
type OrderKey struct {
	Var  string
	Desc bool
}

// Vars returns all distinct variables of the BGP in first-appearance order.
func (q *Query) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			if !seen[v] {
				out = append(out, v)
				seen[v] = true
			}
		}
	}
	return out
}

// Projection returns the variables the query projects: Select, or all BGP
// variables for SELECT *.
func (q *Query) Projection() []string {
	if q.Star {
		return q.Vars()
	}
	return q.Select
}

// Buffered reports whether the query has ORDER BY or OFFSET. Both need the
// whole result, decoded: the engine must run without the query's LIMIT and
// hand every row to Modifiers, so a row stream or a gather of dictionary
// IDs cannot serve them.
func (q *Query) Buffered() bool { return len(q.OrderBy) > 0 || q.Offset > 0 }

// Modifiers applies the solution modifiers of a Buffered query to its
// complete decoded result, in SPARQL's order: ORDER BY (terms compared
// lexicographically, ascending unless DESC, ties keeping their order), then
// OFFSET, then LIMIT. vars names the columns of rows, which is reordered in
// place.
func (q *Query) Modifiers(vars []string, rows [][]string) [][]string {
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range q.OrderBy {
			if c := slices.Index(vars, k.Var); c >= 0 && rows[a][c] != rows[b][c] {
				return (rows[a][c] < rows[b][c]) != k.Desc
			}
		}
		return false
	})
	rows = rows[min(q.Offset, len(rows)):]
	if q.HasLimit {
		rows = rows[:min(q.Limit, len(rows))]
	}
	return rows
}

// ParseError reports a syntax error with its byte offset.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sparql: offset %d: %s", e.Offset, e.Msg)
}

type parser struct {
	src      string
	pos      int
	prefixes map[string]string
}

// Parse parses a query in the supported SPARQL subset.
func Parse(src string) (*Query, error) {
	p := &parser{src: src, prefixes: map[string]string{}}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '#' { // comment to end of line
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		p.pos++
	}
}

// peekKeyword reports whether the next token equals kw (ASCII,
// case-insensitive) and consumes it if so.
func (p *parser) keyword(kw string) bool {
	p.skipSpace()
	if len(p.src)-p.pos < len(kw) {
		return false
	}
	chunk := p.src[p.pos : p.pos+len(kw)]
	if !strings.EqualFold(chunk, kw) {
		return false
	}
	// Must end at a word boundary.
	if p.pos+len(kw) < len(p.src) {
		c := rune(p.src[p.pos+len(kw)])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			return false
		}
	}
	p.pos += len(kw)
	return true
}

func (p *parser) parseQuery() (*Query, error) {
	for p.keyword("PREFIX") {
		if err := p.parsePrefix(); err != nil {
			return nil, err
		}
	}
	if !p.keyword("SELECT") {
		return nil, p.errf("expected SELECT")
	}
	q := &Query{}
	if p.keyword("DISTINCT") {
		q.Distinct = true
	}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '*' {
		p.pos++
		q.Star = true
	} else {
		for {
			p.skipSpace()
			if p.pos >= len(p.src) || p.src[p.pos] != '?' {
				break
			}
			v, err := p.parseVarName()
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, v)
		}
		if len(q.Select) == 0 {
			return nil, p.errf("SELECT needs '*' or at least one variable")
		}
	}
	if !p.keyword("WHERE") {
		return nil, p.errf("expected WHERE")
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '{' {
		return nil, p.errf("expected '{'")
	}
	p.pos++
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated BGP: expected '}'")
		}
		if p.src[p.pos] == '}' {
			p.pos++
			break
		}
		tp, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		q.Patterns = append(q.Patterns, tp)
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '.' {
			p.pos++
		}
	}
	if p.keyword("ORDER") {
		if !p.keyword("BY") {
			return nil, p.errf("expected BY after ORDER")
		}
		for {
			p.skipSpace()
			if p.pos >= len(p.src) {
				break
			}
			switch {
			case p.src[p.pos] == '?':
				v, err := p.parseVarName()
				if err != nil {
					return nil, err
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Var: v})
				continue
			case p.keyword("ASC"), p.keyword("DESC"):
				// keyword() consumed either ASC or DESC; the 4 bytes ending
				// at the cursor distinguish them ("DESC" vs ".ASC").
				desc := p.pos >= 4 && strings.EqualFold(p.src[p.pos-4:p.pos], "DESC")
				p.skipSpace()
				if p.pos >= len(p.src) || p.src[p.pos] != '(' {
					return nil, p.errf("expected '(' after ASC/DESC")
				}
				p.pos++
				p.skipSpace()
				if p.pos >= len(p.src) || p.src[p.pos] != '?' {
					return nil, p.errf("ASC/DESC needs a variable")
				}
				v, err := p.parseVarName()
				if err != nil {
					return nil, err
				}
				p.skipSpace()
				if p.pos >= len(p.src) || p.src[p.pos] != ')' {
					return nil, p.errf("expected ')'")
				}
				p.pos++
				q.OrderBy = append(q.OrderBy, OrderKey{Var: v, Desc: desc})
				continue
			}
			break
		}
		if len(q.OrderBy) == 0 {
			return nil, p.errf("ORDER BY needs at least one key")
		}
	}
	if p.keyword("LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		q.Limit = n
		q.HasLimit = true
	}
	if p.keyword("OFFSET") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		q.Offset = n
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errf("unexpected trailing input %q", truncate(p.src[p.pos:]))
	}
	if len(q.Patterns) == 0 {
		return nil, p.errf("empty BGP")
	}
	// Projected variables must occur in the BGP.
	inBGP := map[string]bool{}
	for _, v := range q.Vars() {
		inBGP[v] = true
	}
	for _, v := range q.Select {
		if !inBGP[v] {
			return nil, p.errf("projected variable ?%s does not occur in the BGP", v)
		}
	}
	// ORDER BY keys must be projected so the sort can run on result rows.
	proj := map[string]bool{}
	for _, v := range q.Projection() {
		proj[v] = true
	}
	for _, k := range q.OrderBy {
		if !proj[k.Var] {
			return nil, p.errf("ORDER BY variable ?%s is not projected", k.Var)
		}
	}
	return q, nil
}

func (p *parser) parsePrefix() error {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != ':' {
		if isSpace(p.src[p.pos]) {
			return p.errf("malformed PREFIX name")
		}
		p.pos++
	}
	if p.pos >= len(p.src) {
		return p.errf("PREFIX without ':'")
	}
	name := p.src[start:p.pos]
	p.pos++ // ':'
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return p.errf("PREFIX needs an IRI")
	}
	end := strings.IndexByte(p.src[p.pos:], '>')
	if end < 0 {
		return p.errf("unterminated PREFIX IRI")
	}
	p.prefixes[name] = p.src[p.pos+1 : p.pos+end]
	p.pos += end + 1
	return nil
}

func (p *parser) parsePattern() (TriplePattern, error) {
	s, err := p.parseTerm(false)
	if err != nil {
		return TriplePattern{}, err
	}
	pr, err := p.parseTerm(false)
	if err != nil {
		return TriplePattern{}, err
	}
	o, err := p.parseTerm(true)
	if err != nil {
		return TriplePattern{}, err
	}
	return TriplePattern{S: s, P: pr, O: o}, nil
}

func (p *parser) parseTerm(allowLiteral bool) (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return Term{}, p.errf("unexpected end of query")
	}
	switch c := p.src[p.pos]; {
	case c == '?':
		v, err := p.parseVarName()
		if err != nil {
			return Term{}, err
		}
		return Variable(v), nil
	case c == '<':
		end := strings.IndexByte(p.src[p.pos:], '>')
		if end < 0 {
			return Term{}, p.errf("unterminated IRI")
		}
		term := p.src[p.pos : p.pos+end+1]
		p.pos += end + 1
		return Constant(term), nil
	case c == '"':
		if !allowLiteral {
			return Term{}, p.errf("literal only allowed in object position")
		}
		return p.parseLiteral()
	case c == 'a' && p.atKeywordA():
		p.pos++
		return Constant(RDFType), nil
	case isPNameStart(c):
		return p.parsePrefixedName()
	case c >= '0' && c <= '9':
		if !allowLiteral {
			return Term{}, p.errf("numeric literal only allowed in object position")
		}
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		return Constant(`"` + p.src[start:p.pos] + `"^^<http://www.w3.org/2001/XMLSchema#integer>`), nil
	default:
		return Term{}, p.errf("unexpected character %q", c)
	}
}

// atKeywordA reports whether the 'a' at the cursor is the rdf:type keyword
// (followed by whitespace) rather than the start of a prefixed name.
func (p *parser) atKeywordA() bool {
	return p.pos+1 >= len(p.src) || isSpace(p.src[p.pos+1])
}

func (p *parser) parseVarName() (string, error) {
	p.pos++ // '?'
	start := p.pos
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("empty variable name")
	}
	return p.src[start:p.pos], nil
}

func (p *parser) parseLiteral() (Term, error) {
	start := p.pos
	p.pos++ // opening quote
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '\\':
			p.pos += 2
			continue
		case '"':
			p.pos++
			// Optional datatype or language tag.
			if strings.HasPrefix(p.src[p.pos:], "^^<") {
				end := strings.IndexByte(p.src[p.pos:], '>')
				if end < 0 {
					return Term{}, p.errf("unterminated datatype IRI")
				}
				p.pos += end + 1
			} else if p.pos < len(p.src) && p.src[p.pos] == '@' {
				p.pos++
				for p.pos < len(p.src) && (isNameChar(p.src[p.pos]) || p.src[p.pos] == '-') {
					p.pos++
				}
			}
			return Constant(p.src[start:p.pos]), nil
		default:
			p.pos++
		}
	}
	return Term{}, p.errf("unterminated literal")
}

func (p *parser) parsePrefixedName() (Term, error) {
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != ':' {
		if !isNameChar(p.src[p.pos]) {
			return Term{}, p.errf("malformed prefixed name")
		}
		p.pos++
	}
	if p.pos >= len(p.src) {
		return Term{}, p.errf("bare name without ':'")
	}
	prefix := p.src[start:p.pos]
	base, ok := p.prefixes[prefix]
	if !ok {
		return Term{}, p.errf("undeclared prefix %q", prefix)
	}
	p.pos++ // ':'
	localStart := p.pos
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return Constant("<" + base + p.src[localStart:p.pos] + ">"), nil
}

func (p *parser) parseInt() (int, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, p.errf("expected integer")
	}
	n := 0
	for _, c := range p.src[start:p.pos] {
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return 0, p.errf("LIMIT too large")
		}
	}
	return n, nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-'
}

func isPNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func truncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}
