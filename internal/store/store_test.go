package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"parj/internal/dict"
	"parj/internal/rdf"
)

// paperExample is the teaching dataset from §3 of the paper.
var paperExample = []rdf.Triple{
	{S: "<ProfessorA>", P: "<teaches>", O: "<Mathematics>"},
	{S: "<ProfessorB>", P: "<teaches>", O: "<Chemistry>"},
	{S: "<ProfessorC>", P: "<teaches>", O: "<Literature>"},
	{S: "<ProfessorA>", P: "<teaches>", O: "<Physics>"},
	{S: "<ProfessorA>", P: "<worksFor>", O: "<University1>"},
	{S: "<ProfessorB>", P: "<worksFor>", O: "<University2>"},
	{S: "<ProfessorC>", P: "<worksFor>", O: "<University2>"},
}

func TestPaperExampleLayout(t *testing.T) {
	st := LoadTriples(paperExample, BuildOptions{})
	if st.NumPredicates() != 2 {
		t.Fatalf("NumPredicates = %d, want 2", st.NumPredicates())
	}
	if st.NumTriples() != 7 {
		t.Fatalf("NumTriples = %d, want 7", st.NumTriples())
	}
	teaches := st.Predicates.Lookup("<teaches>")
	if teaches == 0 {
		t.Fatal("predicate <teaches> not in dictionary")
	}
	so := st.SO(teaches)
	// ProfessorA teaches two things; B and C one each.
	if so.NumKeys() != 3 || so.NumTriples() != 4 {
		t.Fatalf("teaches S-O: keys=%d triples=%d, want 3,4", so.NumKeys(), so.NumTriples())
	}
	profA := st.Resources.Lookup("<ProfessorA>")
	pos, ok := so.LookupKey(profA)
	if !ok {
		t.Fatal("ProfessorA not a subject of teaches")
	}
	run := so.Run(pos)
	if len(run) != 2 {
		t.Fatalf("ProfessorA teaches %d things, want 2", len(run))
	}
	if !sort.SliceIsSorted(run, func(i, j int) bool { return run[i] < run[j] }) {
		t.Error("run not sorted")
	}
	// O-S replica of worksFor: University2 has two employees.
	worksFor := st.Predicates.Lookup("<worksFor>")
	os := st.OS(worksFor)
	uni2 := st.Resources.Lookup("<University2>")
	pos, ok = os.LookupKey(uni2)
	if !ok {
		t.Fatal("University2 not an object of worksFor")
	}
	if got := len(os.Run(pos)); got != 2 {
		t.Errorf("University2 run length = %d, want 2", got)
	}
}

func TestDirectory(t *testing.T) {
	st := LoadTriples(paperExample, BuildOptions{})
	dir := st.Directory()
	if len(dir) != 4 {
		t.Fatalf("directory length = %d, want 4 (2 per predicate)", len(dir))
	}
	teaches := st.Predicates.Lookup("<teaches>")
	if dir[2*(teaches-1)] != 3 {
		t.Errorf("teaches subject count = %d, want 3", dir[2*(teaches-1)])
	}
	if dir[2*(teaches-1)+1] != 4 {
		t.Errorf("teaches object count = %d, want 4 (all objects distinct)", dir[2*(teaches-1)+1])
	}
}

func TestDuplicateTriplesAreDeduplicated(t *testing.T) {
	dup := append(append([]rdf.Triple{}, paperExample...), paperExample...)
	st := LoadTriples(dup, BuildOptions{})
	if st.NumTriples() != len(paperExample) {
		t.Errorf("NumTriples = %d, want %d", st.NumTriples(), len(paperExample))
	}
}

func TestEmptyStore(t *testing.T) {
	st := LoadTriples(nil, BuildOptions{})
	if st.NumPredicates() != 0 || st.NumTriples() != 0 {
		t.Errorf("empty store: %s", st)
	}
	st.Triples(func(s, p, o uint32) bool {
		t.Error("empty store yielded a triple")
		return false
	})
}

func TestTriplesRoundTrip(t *testing.T) {
	st := LoadTriples(paperExample, BuildOptions{})
	var got []rdf.Triple
	st.Triples(func(s, p, o uint32) bool {
		got = append(got, rdf.Triple{
			S: st.Resources.Decode(s),
			P: st.Predicates.Decode(p),
			O: st.Resources.Decode(o),
		})
		return true
	})
	if len(got) != len(paperExample) {
		t.Fatalf("round trip length %d, want %d", len(got), len(paperExample))
	}
	want := append([]rdf.Triple{}, paperExample...)
	sortTriples(want)
	sortTriples(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %v\nwant %v", got, want)
	}
}

func sortTriples(ts []rdf.Triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.P != b.P {
			return a.P < b.P
		}
		if a.S != b.S {
			return a.S < b.S
		}
		return a.O < b.O
	})
}

func TestPosIndexBuilt(t *testing.T) {
	st := LoadTriples(paperExample, BuildOptions{BuildPosIndex: true})
	teaches := st.Predicates.Lookup("<teaches>")
	so := st.SO(teaches)
	if so.Index == nil {
		t.Fatal("pos index not built")
	}
	for i, k := range so.Keys {
		pos, ok := so.Index.Lookup(k)
		if !ok || pos != i {
			t.Errorf("index Lookup(%d) = (%d,%v), want (%d,true)", k, pos, ok, i)
		}
	}
	if st.Bytes() <= 0 {
		t.Error("Bytes() not positive with indexes")
	}
}

func TestThresholdsAssigned(t *testing.T) {
	st := LoadTriples(paperExample, BuildOptions{BuildPosIndex: true})
	teaches := st.Predicates.Lookup("<teaches>")
	so := st.SO(teaches)
	if so.Threshold == 0 {
		t.Error("binary threshold is 0")
	}
	if so.IndexThreshold == 0 {
		t.Error("index threshold is 0")
	}
	if so.IndexThreshold > so.Threshold {
		t.Errorf("index threshold %d > binary threshold %d; the index alternative should switch to scan later",
			so.IndexThreshold, so.Threshold)
	}
}

func TestRunBounds(t *testing.T) {
	st := LoadTriples(paperExample, BuildOptions{})
	teaches := st.Predicates.Lookup("<teaches>")
	so := st.SO(teaches)
	total := 0
	for i := 0; i < so.NumKeys(); i++ {
		s, e := so.RunBounds(i)
		if e <= s {
			t.Fatalf("empty run at %d", i)
		}
		if got := so.Run(i); len(got) != e-s {
			t.Fatalf("Run(%d) length %d, bounds say %d", i, len(got), e-s)
		}
		total += e - s
	}
	if total != so.NumTriples() {
		t.Errorf("runs cover %d triples, want %d", total, so.NumTriples())
	}
}

// randomTriples produces n random encoded triples over small ID spaces so
// collisions (duplicates, shared subjects/objects) are common.
func randomTriples(rng *rand.Rand, n int) []rdf.Triple {
	names := func(prefix string, k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = "<" + prefix + string(rune('a'+i%26)) + string(rune('0'+i/26)) + ">"
		}
		return out
	}
	res := names("r", 40)
	preds := names("p", 5)
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.Triple{
			S: res[rng.Intn(len(res))],
			P: preds[rng.Intn(len(preds))],
			O: res[rng.Intn(len(res))],
		}
	}
	return ts
}

// Property: the store holds exactly the distinct input triples — both
// replicas agree with each other and with the input multiset.
func TestQuickStoreHoldsInputSet(t *testing.T) {
	f := func(seed int64, nSeed uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nSeed)%500 + 1
		input := randomTriples(rng, n)
		st := LoadTriples(input, BuildOptions{})

		want := make(map[rdf.Triple]bool)
		for _, tr := range input {
			want[tr] = true
		}
		got := make(map[rdf.Triple]bool)
		st.Triples(func(s, p, o uint32) bool {
			got[rdf.Triple{
				S: st.Resources.Decode(s),
				P: st.Predicates.Decode(p),
				O: st.Resources.Decode(o),
			}] = true
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for tr := range want {
			if !got[tr] {
				return false
			}
		}
		// O-S replica must contain the same triples as S-O.
		osCount := 0
		for p := 1; p <= st.NumPredicates(); p++ {
			osT := st.OS(uint32(p))
			osCount += osT.NumTriples()
			for i, k := range osT.Keys {
				for _, sub := range osT.Run(i) {
					tr := rdf.Triple{
						S: st.Resources.Decode(sub),
						P: st.Predicates.Decode(uint32(p)),
						O: st.Resources.Decode(k),
					}
					if !want[tr] {
						return false
					}
				}
			}
		}
		return osCount == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: CSR invariants hold for every table — keys sorted and distinct,
// offsets monotone covering Vals, runs sorted.
func TestQuickCSRInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := LoadTriples(randomTriples(rng, 300), BuildOptions{BuildPosIndex: true})
		for p := 1; p <= st.NumPredicates(); p++ {
			for _, tab := range []*Table{st.SO(uint32(p)), st.OS(uint32(p))} {
				if len(tab.Offs) != len(tab.Keys)+1 {
					return false
				}
				if tab.Offs[0] != 0 || int(tab.Offs[len(tab.Offs)-1]) != len(tab.Vals) {
					return false
				}
				for i := 1; i < len(tab.Keys); i++ {
					if tab.Keys[i] <= tab.Keys[i-1] {
						return false
					}
					if tab.Offs[i] < tab.Offs[i-1] {
						return false
					}
				}
				for i := range tab.Keys {
					run := tab.Run(i)
					if len(run) == 0 {
						return false
					}
					for j := 1; j < len(run); j++ {
						if run[j] <= run[j-1] {
							return false
						}
					}
					if pos, ok := tab.Index.Lookup(tab.Keys[i]); !ok || pos != i {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCalibratedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Enough triples to trigger real calibration (> 1024 distinct keys).
	var triples []rdf.Triple
	for i := 0; i < 3000; i++ {
		triples = append(triples, rdf.Triple{
			S: rdf.NewIRI("http://s" + itoa(i)),
			P: "<http://p>",
			O: rdf.NewIRI("http://o" + itoa(rng.Intn(100))),
		})
	}
	st := LoadTriples(triples, BuildOptions{Calibrate: true, BuildPosIndex: true})
	so := st.SO(1)
	if so.Threshold == 0 {
		t.Error("calibrated threshold is 0")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestBaseAddressesDisjoint(t *testing.T) {
	st := LoadTriples(paperExample, BuildOptions{BuildPosIndex: true})
	type rng struct{ lo, hi uint64 }
	var ranges []rng
	for p := 1; p <= st.NumPredicates(); p++ {
		for _, tab := range []*Table{st.SO(uint32(p)), st.OS(uint32(p))} {
			ranges = append(ranges,
				rng{tab.KeysBase, tab.KeysBase + uint64(len(tab.Keys))*4},
				rng{tab.ValsBase, tab.ValsBase + uint64(len(tab.Vals))*4})
		}
	}
	for i := range ranges {
		for j := i + 1; j < len(ranges); j++ {
			a, b := ranges[i], ranges[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("address ranges overlap: %v %v", a, b)
			}
		}
	}
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	triples := randomTriples(rng, 2000)
	b1 := NewBuilder()
	b2 := NewBuilder()
	for _, tr := range triples {
		b1.AddTriple(tr)
		b2.AddTriple(tr)
	}
	serial := b1.Build(BuildOptions{BuildPosIndex: true, Parallelism: 1})
	parallel := b2.Build(BuildOptions{BuildPosIndex: true, Parallelism: 8})
	if serial.NumTriples() != parallel.NumTriples() {
		t.Fatalf("triple counts: %d vs %d", serial.NumTriples(), parallel.NumTriples())
	}
	for p := 1; p <= serial.NumPredicates(); p++ {
		a, b := serial.SO(uint32(p)), parallel.SO(uint32(p))
		if !reflect.DeepEqual(a.Keys, b.Keys) || !reflect.DeepEqual(a.Vals, b.Vals) ||
			!reflect.DeepEqual(a.Offs, b.Offs) {
			t.Fatalf("predicate %d S-O differs between serial and parallel build", p)
		}
		if a.Threshold != b.Threshold || a.IndexThreshold != b.IndexThreshold {
			t.Fatalf("predicate %d thresholds differ", p)
		}
	}
	if !reflect.DeepEqual(serial.Directory(), parallel.Directory()) {
		t.Fatal("directories differ")
	}
}

// TestLoadRetainsNothingOfItsInput: the dictionary copies each new term into
// its arena, so once an N-Triples document is dropped a store holds its
// tables, its term bytes and a fixed cost per term, and nothing of the lines
// the terms were cut from. Its 48 001 terms fill the term table to 73 %: the
// 24 B per term allowed covers an 8-byte locator with its append slack, an
// 11-byte share of the table, the arena's unfilled last chunk and the
// tables' append slack. (At a quarter-full table its share is twice that:
// the table doubles past ¾.) A retained line costs more than all of it.
func TestLoadRetainsNothingOfItsInput(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	var doc strings.Builder
	for i := 0; i < 24000; i++ {
		fmt.Fprintf(&doc, "<http://example.org/subject/%08d> <http://example.org/p> \"object literal number %08d\" .\n", i, i)
	}
	st, err := LoadNTriples(strings.NewReader(doc.String()), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc = strings.Builder{}
	growth := heap() - before
	var terms, termBytes int64
	for _, d := range []*dict.Dict{st.Resources, st.Predicates} {
		for id := uint32(1); id <= d.MaxID(); id++ {
			terms++
			termBytes += int64(len(d.Decode(id)))
		}
	}
	if limit := int64(st.Bytes()) + termBytes + 24*terms; growth > limit {
		t.Errorf("heap grew %d B for %d terms: %d B of tables, %d B of terms and %.1f B per term over them, limit 24",
			growth, terms, st.Bytes(), termBytes, float64(growth-int64(st.Bytes())-termBytes)/float64(terms))
	}
	runtime.KeepAlive(st)
}
