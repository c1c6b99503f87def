package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"parj/internal/rdf"
	"parj/internal/testutil"
)

// tinyBlocks makes LoadNTriples cut blocks of 16 bytes doubling to 64, so
// a small document spans many blocks and most lines are longer than one.
func tinyBlocks(tb testing.TB) {
	oldMin, oldMax := minBlock, maxBlock
	minBlock, maxBlock = 16, 64
	tb.Cleanup(func() { minBlock, maxBlock = oldMin, oldMax })
}

// viaReader builds a store the sequential way: rdf.Reader, then
// Builder.AddTriple per triple.
func viaReader(doc string) (*Store, error) {
	b := NewBuilder()
	rd := rdf.NewReader(strings.NewReader(doc))
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return b.Build(BuildOptions{}), nil
		}
		if err != nil {
			return nil, err
		}
		b.AddTriple(t)
	}
}

// checkLoadMatchesReader requires LoadNTriples at parallelism par to give
// the same error as viaReader, or a store with the same snapshot bytes.
func checkLoadMatchesReader(t *testing.T, doc string, par int) {
	t.Helper()
	want, wantErr := viaReader(doc)
	got, err := LoadNTriples(strings.NewReader(doc), BuildOptions{Parallelism: par})
	if wantErr != nil || err != nil {
		if !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("parallelism %d: error %v, rdf.Reader gives %v\ndoc %q", par, err, wantErr, doc)
		}
		return
	}
	if !bytes.Equal(savedBytes(t, got), savedBytes(t, want)) {
		t.Fatalf("parallelism %d: snapshot differs from the rdf.Reader + Builder store\ndoc %q", par, doc)
	}
}

// randomDocument writes n lines of N-Triples with the shapes a loader must
// cut alike: comments, blank lines, CRLF, tabs, typed and tagged literals,
// blank nodes, a line longer than any tiny block, and sometimes no final
// newline.
func randomDocument(rng *rand.Rand, n int) string {
	term := func(object bool) string {
		switch k := rng.Intn(8); {
		case k < 4 || !object && k >= 6:
			return fmt.Sprintf("<http://example.org/r%d>", rng.Intn(40))
		case k == 4:
			return fmt.Sprintf("_:b%d", rng.Intn(10))
		case k == 5:
			return fmt.Sprintf("%q@en", fmt.Sprint("label ", rng.Intn(20)))
		case k == 6:
			return fmt.Sprintf(`"%d"^^<http://www.w3.org/2001/XMLSchema#integer>`, rng.Intn(20))
		default:
			return strconv.Quote(strings.Repeat("long literal ", 1+rng.Intn(20)))
		}
	}
	space := func() string { return []string{" ", "\t", "  ", " \t"}[rng.Intn(4)] }
	var sb strings.Builder
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0:
			sb.WriteString("# a comment line")
		case 1:
		case 2:
			sb.WriteString(space())
		default:
			if rng.Intn(4) == 0 {
				sb.WriteString(space())
			}
			sb.WriteString(term(false) + space() + fmt.Sprintf("<http://example.org/p%d>", rng.Intn(5)) + space() + term(true) + space() + ".")
		}
		if i < n-1 || rng.Intn(2) == 0 {
			sb.WriteString([]string{"\n", "\n", "\r\n"}[rng.Intn(3)])
		}
	}
	return sb.String()
}

// TestLoadNTriplesMatchesReader: the block loader, with blocks cut tiny and
// at one, two and four parsers, builds the store rdf.Reader + Builder
// builds, down to the snapshot bytes (the same IDs in the same order).
func TestLoadNTriplesMatchesReader(t *testing.T) {
	tinyBlocks(t)
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 60; i++ {
		doc := randomDocument(rng, rng.Intn(120))
		for _, par := range []int{1, 2, 4} {
			checkLoadMatchesReader(t, doc, par)
		}
	}
	long := "<s> <p> " + strconv.Quote(strings.Repeat("x", 500)) + " .\r\n<s> <p> <o> ."
	checkLoadMatchesReader(t, long, 2)
}

// TestLoadNTriplesParseErrorParity: with the first bad line in a later
// block and another bad line after it, the loader returns the *ParseError
// rdf.Reader returns — line number, message and text — and leaves no
// goroutine behind. The one-block document takes the path without
// goroutines.
func TestLoadNTriplesParseErrorParity(t *testing.T) {
	var good strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&good, "<http://example.org/s%d> <http://example.org/p> \"o %d\" .\n", i, i)
	}
	for i, tc := range []struct {
		doc  string
		tiny bool
	}{
		{good.String() + "<http://example.org/s> \"literal predicate\" <o> .\n" + good.String() + "<a> <b> .\n", true},
		{good.String() + "# comment\n\n<unterminated <p> <o> .\r\n<x> <y> <z>\n", true},
		{"<a> <b> <c> .\n<a> <b>\n<a>\n", false},
	} {
		for _, par := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("doc%d/parallelism%d", i, par), func(t *testing.T) {
				defer testutil.LeakCheck(t)()
				if tc.tiny {
					tinyBlocks(t)
				}
				_, want := viaReader(tc.doc)
				var pe *rdf.ParseError
				if !errors.As(want, &pe) {
					t.Fatalf("rdf.Reader error %v, want a *ParseError", want)
				}
				_, err := LoadNTriples(strings.NewReader(tc.doc), BuildOptions{Parallelism: par})
				if !reflect.DeepEqual(err, want) {
					t.Fatalf("error %#v, rdf.Reader gives %#v", err, want)
				}
			})
		}
	}
}

// TestLoadNTriplesReaderError: an input that fails mid-stream fails the
// load with its error, in the first block or after many, and leaves no
// goroutine behind; a parse error in an earlier block still comes first.
func TestLoadNTriplesReaderError(t *testing.T) {
	boom := errors.New("disk on fire")
	lines := strings.Repeat("<http://example.org/s> <http://example.org/p> <http://example.org/o> .\n", 50)
	for _, tc := range []struct {
		name, prefix string
		tiny         bool
		want         error
	}{
		{"first block", lines, false, boom},
		{"later block", lines, true, boom},
		{"parse error first", "<a> <b> .\n" + lines, true, &rdf.ParseError{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.LeakCheck(t)()
			if tc.tiny {
				tinyBlocks(t)
			}
			r := io.MultiReader(strings.NewReader(tc.prefix), iotest.ErrReader(boom))
			_, err := LoadNTriples(r, BuildOptions{Parallelism: 2})
			var pe *rdf.ParseError
			switch {
			case errors.As(tc.want, &pe):
				if !errors.As(err, &pe) || pe.Line != 1 {
					t.Fatalf("error %v, want the line 1 *ParseError", err)
				}
			case !errors.Is(err, tc.want):
				t.Fatalf("error %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzLoadNTriples runs the block loader (tiny blocks, two parsers) and
// rdf.Reader + Builder side by side on one document: the same error, or
// stores with the same snapshot bytes. It is seeded with the seeds and the
// corpus of rdf's FuzzParseNTriples.
func FuzzLoadNTriples(f *testing.F) {
	tinyBlocks(f)
	for _, s := range []string{
		"<http://a> <http://p> <http://b> .\n",
		`<http://a> <http://p> "lit" .` + "\n",
		`_:b0 <http://p> "x\"y"@en .` + "\n",
		`<a> <p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .` + "\n",
		"# comment\n\n",
		"<a <p> <b> .\n",
		"<a> <p> .\n",
		strings.Repeat(`<s> <p> <o> .`+"\n", 5),
	} {
		f.Add(s)
	}
	files, err := filepath.Glob("../rdf/testdata/fuzz/FuzzParseNTriples/*")
	if err != nil || len(files) == 0 {
		f.Fatalf("no FuzzParseNTriples corpus: %v", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(data), "go test fuzz v1\n"))
		doc, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "string("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		checkLoadMatchesReader(t, doc, 2)
	})
}
