package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseError describes a syntax error in an N-Triples document.
type ParseError struct {
	Line int    // 1-based line number
	Msg  string // what went wrong
	Text string // the offending line, truncated
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// Reader parses N-Triples documents line by line.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader returns a Reader consuming N-Triples from r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	return &Reader{sc: sc}
}

// Read returns the next triple, or io.EOF at end of input. Blank lines and
// comment lines (starting with '#') are skipped.
func (r *Reader) Read() (Triple, error) {
	for r.sc.Scan() {
		r.line++
		if t, ok, err := parseLine(r.line, r.sc.Text()); ok || err != nil {
			return t, err
		}
	}
	if err := r.sc.Err(); err != nil {
		return Triple{}, err
	}
	return Triple{}, io.EOF
}

// ParseLines parses data, a run of whole N-Triples lines split on '\n' as
// Reader splits them, and calls emit with each triple in order. It copies
// nothing: every term is a substring of data. A *ParseError numbers lines
// from 1 at data's first line. lines is the number of lines data holds.
func ParseLines(data string, emit func(Triple)) (lines int, err error) {
	for data != "" {
		var line string
		line, data, _ = strings.Cut(data, "\n")
		lines++
		t, ok, err := parseLine(lines, line)
		if err != nil {
			return lines, err
		}
		if ok {
			emit(t)
		}
	}
	return lines, nil
}

// ReadAll consumes the remaining input and returns all triples.
func (r *Reader) ReadAll() ([]Triple, error) {
	var out []Triple
	for {
		t, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

func errf(no int, line, format string, args ...any) error {
	if len(line) > 80 {
		line = line[:80] + "..."
	}
	return &ParseError{Line: no, Msg: fmt.Sprintf(format, args...), Text: line}
}

// parseLine parses line number no. ok is false for a blank or comment line.
func parseLine(no int, line string) (t Triple, ok bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || line[0] == '#' {
		return Triple{}, false, nil
	}
	rest := line
	if t.S, rest, err = parseTerm(no, line, rest, false); err != nil {
		return Triple{}, false, err
	}
	if t.P, rest, err = parseTerm(no, line, rest, false); err != nil {
		return Triple{}, false, err
	}
	if KindOf(t.P) != IRI {
		return Triple{}, false, errf(no, line, "predicate must be an IRI, got %q", t.P)
	}
	if t.O, rest, err = parseTerm(no, line, rest, true); err != nil {
		return Triple{}, false, err
	}
	rest = strings.TrimSpace(rest)
	if rest != "." && rest != ". " {
		if !strings.HasPrefix(rest, ".") || strings.TrimSpace(rest[1:]) != "" {
			return Triple{}, false, errf(no, line, "expected terminating '.', got %q", rest)
		}
	}
	return t, true, nil
}

// parseTerm consumes one term from rest and returns it with the remainder.
// allowLiteral permits literal terms (only valid in the object position).
func parseTerm(no int, line, rest string, allowLiteral bool) (term, remainder string, err error) {
	for rest != "" && (rest[0] == ' ' || rest[0] == '\t') {
		rest = rest[1:]
	}
	if rest == "" {
		return "", "", errf(no, line, "unexpected end of line")
	}
	switch rest[0] {
	case '<':
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			return "", "", errf(no, line, "unterminated IRI")
		}
		return rest[:end+1], rest[end+1:], nil
	case '_':
		if len(rest) < 3 || rest[1] != ':' {
			return "", "", errf(no, line, "malformed blank node")
		}
		end := strings.IndexAny(rest, " \t")
		if end < 0 {
			end = len(rest)
		}
		label := rest[:end]
		// A line like `_:b .` leaves the dot attached only when unspaced;
		// N-Triples requires whitespace before '.', so this is fine.
		return label, rest[end:], nil
	case '"':
		if !allowLiteral {
			return "", "", errf(no, line, "literal not allowed in this position")
		}
		end := closingQuote(rest)
		if end < 0 {
			return "", "", errf(no, line, "unterminated literal")
		}
		// The term runs on through a datatype or language tag, so it stays
		// one substring of the line.
		n := end + 1
		switch tail := rest[n:]; {
		case strings.HasPrefix(tail, "^^<"):
			dtEnd := strings.IndexByte(tail, '>')
			if dtEnd < 0 {
				return "", "", errf(no, line, "unterminated datatype IRI")
			}
			n += dtEnd + 1
		case strings.HasPrefix(tail, "@"):
			end := strings.IndexAny(tail, " \t")
			if end < 0 {
				return "", "", errf(no, line, "language tag runs to end of line")
			}
			n += end
		}
		return rest[:n], rest[n:], nil
	default:
		return "", "", errf(no, line, "unexpected character %q", rest[0])
	}
}

// closingQuote returns the index of the closing '"' of a literal that starts
// at s[0], honoring backslash escapes, or -1.
func closingQuote(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip escaped char
		case '"':
			return i
		}
	}
	return -1
}

// Writer serializes triples as N-Triples.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter returns a Writer emitting N-Triples to w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Write emits one triple.
func (w *Writer) Write(t Triple) error {
	for _, part := range []string{t.S, " ", t.P, " ", t.O, " .\n"} {
		if _, err := w.bw.WriteString(part); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// ParseString parses a complete N-Triples document held in a string.
func ParseString(doc string) ([]Triple, error) {
	return NewReader(strings.NewReader(doc)).ReadAll()
}
