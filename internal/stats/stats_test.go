package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parj/internal/rdf"
	"parj/internal/store"
)

func buildTestStore() *store.Store {
	var triples []rdf.Triple
	// teaches: professors 0..9, professor i teaches i+1 courses.
	for i := 0; i < 10; i++ {
		for j := 0; j <= i; j++ {
			triples = append(triples, rdf.Triple{
				S: rdf.NewIRI("prof" + string(rune('0'+i))),
				P: "<teaches>",
				O: rdf.NewIRI("course" + string(rune('a'+i)) + string(rune('0'+j))),
			})
		}
	}
	// worksFor: professors 0..9 work for 2 universities.
	for i := 0; i < 10; i++ {
		uni := "<uni1>"
		if i%2 == 1 {
			uni = "<uni2>"
		}
		triples = append(triples, rdf.Triple{
			S: rdf.NewIRI("prof" + string(rune('0'+i))), P: "<worksFor>", O: uni,
		})
	}
	return store.LoadTriples(triples, store.BuildOptions{})
}

func TestStoreStats(t *testing.T) {
	st := buildTestStore()
	s := New(st)
	teaches := st.Predicates.Lookup("<teaches>")
	worksFor := st.Predicates.Lookup("<worksFor>")

	if got := s.Triples(teaches); got != 55 {
		t.Errorf("Triples(teaches) = %d, want 55", got)
	}
	subjCol := Column{Pred: teaches, Subject: true}
	if got := s.Distinct(subjCol); got != 10 {
		t.Errorf("Distinct(teaches subject) = %d, want 10", got)
	}
	if got := s.AvgRun(subjCol); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("AvgRun = %f, want 5.5", got)
	}

	// Exact count for a constant: prof9 teaches 10 courses.
	prof9 := st.Resources.Lookup(rdf.NewIRI("prof9"))
	if got := s.CountExact(subjCol, prof9); got != 10 {
		t.Errorf("CountExact(prof9) = %d, want 10", got)
	}
	if got := s.CountExact(subjCol, 999999); got != 0 {
		t.Errorf("CountExact(absent) = %d, want 0", got)
	}

	// Pair cardinality teaches.S ⋈ worksFor.S: every professor appears in
	// both; join size = sum over profs of (courses × 1) = 55.
	wfSubj := Column{Pred: worksFor, Subject: true}
	if got := s.PairCardinality(subjCol, wfSubj); got != 55 {
		t.Errorf("PairCardinality = %f, want 55", got)
	}
	// Memoized and canonical: reverse order gives the same value.
	if got := s.PairCardinality(wfSubj, subjCol); got != 55 {
		t.Errorf("reversed PairCardinality = %f, want 55", got)
	}

	// teaches.O ⋈ worksFor.O share no values.
	if got := s.PairCardinality(Column{Pred: teaches}, Column{Pred: worksFor}); got != 0 {
		t.Errorf("disjoint PairCardinality = %f, want 0", got)
	}

	if got := s.JoinSelectivityDistinct(subjCol, wfSubj); got != 10 {
		t.Errorf("JoinSelectivityDistinct = %d, want 10", got)
	}
}

// Property: PairCardinality equals the brute-force join count on random
// stores.
func TestQuickPairCardinality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var triples []rdf.Triple
		n := 100 + rng.Intn(200)
		for i := 0; i < n; i++ {
			triples = append(triples, rdf.Triple{
				S: rdf.NewIRI("r" + itoa(rng.Intn(30))),
				P: "<p" + string(rune('0'+rng.Intn(2))) + ">",
				O: rdf.NewIRI("r" + itoa(rng.Intn(30))),
			})
		}
		st := store.LoadTriples(triples, store.BuildOptions{})
		if st.NumPredicates() < 2 {
			return true
		}
		s := New(st)
		// Brute force p1.O ⋈ p2.S over decoded triples.
		var t1, t2 []rdf.Triple
		p1name, p2name := st.Predicates.Decode(1), st.Predicates.Decode(2)
		seen := map[rdf.Triple]bool{}
		for _, tr := range triples {
			if seen[tr] {
				continue
			}
			seen[tr] = true
			switch tr.P {
			case p1name:
				t1 = append(t1, tr)
			case p2name:
				t2 = append(t2, tr)
			}
		}
		want := 0
		for _, a := range t1 {
			for _, b := range t2 {
				if a.O == b.S {
					want++
				}
			}
		}
		got := s.PairCardinality(Column{Pred: 1, Subject: false}, Column{Pred: 2, Subject: true})
		return got == float64(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
