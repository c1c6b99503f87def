// Package watdiv provides a deterministic generator for WatDiv-like
// e-commerce data plus the query workloads of the paper's Tables 3 and 4:
// the basic workload (linear L1–L5, star S1–S7, snowflake F1–F5, complex
// C1–C3) and the incremental linear (IL-1, IL-2, IL-3) and mixed linear
// (ML-1, ML-2) extensions with path lengths 5–10.
//
// The Waterloo SPARQL Diversity Test Suite ships a C++ generator and query
// templates; this generator reproduces what matters for PARJ's evaluation:
// a schema diverse enough for 9-pattern stars, value skew (popular products
// and heavily-followed users), and a cyclic relation chain (follows → likes
// → hasReview → reviewer) that supports unbounded linear paths, including
// the result explosion of the IL-3 family.
package watdiv

import (
	"fmt"
	"math"
	"math/rand"

	"parj/internal/rdf"
)

const ns = "http://watdiv.repro/"

// Predicate IRIs.
var (
	PredType        = iri("type")
	PredFollows     = iri("follows")
	PredLikes       = iri("likes")
	PredSubscribes  = iri("subscribesTo")
	PredGender      = iri("gender")
	PredAge         = iri("age")
	PredNationality = iri("nationality")
	PredNickname    = iri("nickname")
	PredEmail       = iri("email")
	PredGenre       = iri("genre")
	PredPrice       = iri("price")
	PredSoldBy      = iri("soldBy")
	PredCaption     = iri("caption")
	PredHasReview   = iri("hasReview")
	PredReviewer    = iri("reviewer")
	PredRating      = iri("rating")
	PredLocatedIn   = iri("locatedIn")
	PredHomepage    = iri("homepage")
	PredPartOf      = iri("partOf")
	PredLanguage    = iri("language")
)

// Class IRIs.
var (
	ClassUser     = iri("User")
	ClassProduct  = iri("Product")
	ClassRetailer = iri("Retailer")
	ClassReview   = iri("Review")
	ClassWebsite  = iri("Website")
	ClassCity     = iri("City")
	ClassCountry  = iri("Country")
	ClassGenre    = iri("Genre")
)

func iri(local string) string { return "<" + ns + local + ">" }

// Config tunes entity counts per scale unit. The zero value gives ~5.5k
// triples per scale unit.
type Config struct {
	UsersPerScale     int // default 400
	ProductsPerScale  int // default 200
	ReviewsPerScale   int // default 300
	RetailersPerScale int // default 12
	WebsitesPerScale  int // default 25
	Cities            int // default 20 (global)
	Countries         int // default 10 (global)
	Genres            int // default 15 (global)
	// Skew is the power-law exponent for popularity skew (higher = more
	// skewed). Default 2.5.
	Skew float64
}

func (c *Config) fill() {
	if c.UsersPerScale == 0 {
		c.UsersPerScale = 400
	}
	if c.ProductsPerScale == 0 {
		c.ProductsPerScale = 200
	}
	if c.ReviewsPerScale == 0 {
		c.ReviewsPerScale = 300
	}
	if c.RetailersPerScale == 0 {
		c.RetailersPerScale = 12
	}
	if c.WebsitesPerScale == 0 {
		c.WebsitesPerScale = 25
	}
	if c.Cities == 0 {
		c.Cities = 20
	}
	if c.Countries == 0 {
		c.Countries = 10
	}
	if c.Genres == 0 {
		c.Genres = 15
	}
	if c.Skew == 0 {
		c.Skew = 2.5
	}
}

// Generate emits the triples for the given scale.
func Generate(scale int, cfg Config, emit func(rdf.Triple)) {
	cfg.fill()
	rng := rand.New(rand.NewSource(42))
	t := func(s, p, o string) { emit(rdf.Triple{S: s, P: p, O: o}) }

	nUsers := cfg.UsersPerScale * scale
	nProducts := cfg.ProductsPerScale * scale
	nReviews := cfg.ReviewsPerScale * scale
	nRetailers := cfg.RetailersPerScale * scale
	nWebsites := cfg.WebsitesPerScale * scale

	// skewed picks an index in [0, n) biased toward 0 (popular entities).
	skewed := func(n int) int {
		return int(float64(n) * math.Pow(rng.Float64(), cfg.Skew))
	}

	for i := 0; i < cfg.Genres; i++ {
		t(genreIRI(i), PredType, ClassGenre)
	}
	for i := 0; i < cfg.Countries; i++ {
		t(countryIRI(i), PredType, ClassCountry)
	}
	for i := 0; i < cfg.Cities; i++ {
		t(cityIRI(i), PredType, ClassCity)
		t(cityIRI(i), PredPartOf, countryIRI(i%cfg.Countries))
	}
	for i := 0; i < nWebsites; i++ {
		t(websiteIRI(i), PredType, ClassWebsite)
		t(websiteIRI(i), PredLanguage, fmt.Sprintf("%q", []string{"en", "de", "fr", "el", "es"}[i%5]))
	}
	for i := 0; i < nRetailers; i++ {
		t(retailerIRI(i), PredType, ClassRetailer)
		t(retailerIRI(i), PredLocatedIn, cityIRI(rng.Intn(cfg.Cities)))
		t(retailerIRI(i), PredHomepage, websiteIRI(rng.Intn(nWebsites)))
	}
	for i := 0; i < nProducts; i++ {
		p := productIRI(i)
		t(p, PredType, ClassProduct)
		t(p, PredGenre, genreIRI(skewed(cfg.Genres)))
		t(p, PredPrice, fmt.Sprintf("%q", fmt.Sprintf("%d", 1+rng.Intn(500))))
		t(p, PredSoldBy, retailerIRI(skewed(nRetailers)))
		if rng.Intn(3) == 0 {
			t(p, PredCaption, fmt.Sprintf("%q", fmt.Sprintf("product %d", i)))
		}
	}
	for i := 0; i < nReviews; i++ {
		r := reviewIRI(i)
		t(r, PredType, ClassReview)
		t(r, PredReviewer, userIRI(rng.Intn(nUsers)))
		t(r, PredRating, fmt.Sprintf("%q", fmt.Sprintf("%d", 1+rng.Intn(5))))
		// hasReview points product -> review.
		t(productIRI(skewed(nProducts)), PredHasReview, r)
	}
	genders := []string{`"male"`, `"female"`, `"other"`}
	for i := 0; i < nUsers; i++ {
		u := userIRI(i)
		t(u, PredType, ClassUser)
		t(u, PredGender, genders[rng.Intn(3)])
		t(u, PredAge, fmt.Sprintf("%q", fmt.Sprintf("%d", 16+rng.Intn(60))))
		t(u, PredNationality, countryIRI(skewed(cfg.Countries)))
		t(u, PredNickname, fmt.Sprintf("%q", fmt.Sprintf("user%d", i)))
		if rng.Intn(2) == 0 {
			t(u, PredEmail, fmt.Sprintf("%q", fmt.Sprintf("user%d@mail.example", i)))
		}
		nFollows := rng.Intn(5)
		for f := 0; f < nFollows; f++ {
			t(u, PredFollows, userIRI(skewed(nUsers)))
		}
		nLikes := 1 + rng.Intn(4)
		for l := 0; l < nLikes; l++ {
			t(u, PredLikes, productIRI(skewed(nProducts)))
		}
		if rng.Intn(2) == 0 {
			t(u, PredSubscribes, websiteIRI(skewed(nWebsites)))
		}
	}
}

// Triples generates and collects all triples.
func Triples(scale int, cfg Config) []rdf.Triple {
	var out []rdf.Triple
	Generate(scale, cfg, func(t rdf.Triple) { out = append(out, t) })
	return out
}

func userIRI(i int) string     { return fmt.Sprintf("<%suser%d>", ns, i) }
func productIRI(i int) string  { return fmt.Sprintf("<%sproduct%d>", ns, i) }
func reviewIRI(i int) string   { return fmt.Sprintf("<%sreview%d>", ns, i) }
func retailerIRI(i int) string { return fmt.Sprintf("<%sretailer%d>", ns, i) }
func websiteIRI(i int) string  { return fmt.Sprintf("<%swebsite%d>", ns, i) }
func cityIRI(i int) string     { return fmt.Sprintf("<%scity%d>", ns, i) }
func countryIRI(i int) string  { return fmt.Sprintf("<%scountry%d>", ns, i) }
func genreIRI(i int) string    { return fmt.Sprintf("<%sgenre%d>", ns, i) }

// Query is one benchmark query with its workload group.
type Query struct {
	Name   string
	Group  string // "L", "S", "F", "C", "IL-1", "IL-2", "IL-3", "ML-1", "ML-2"
	SPARQL string
}

// BasicQueries returns the 20-query basic workload (L1–L5, S1–S7, F1–F5,
// C1–C3).
func BasicQueries() []Query {
	qs := []Query{
		// Linear: short paths anchored by a constant.
		{"L1", "L", `SELECT ?v0 ?v1 ?v2 WHERE {
			?v0 ` + PredFollows + ` ?v1 .
			?v1 ` + PredLikes + ` ?v2 .
			?v2 ` + PredGenre + ` ` + genreIRI(2) + ` }`},
		{"L2", "L", `SELECT ?v1 ?v2 WHERE {
			` + userIRI(0) + ` ` + PredLikes + ` ?v1 .
			?v1 ` + PredHasReview + ` ?v2 }`},
		{"L3", "L", `SELECT ?v0 ?v1 WHERE {
			?v0 ` + PredLikes + ` ` + productIRI(0) + ` .
			?v0 ` + PredSubscribes + ` ?v1 }`},
		{"L4", "L", `SELECT ?v0 ?n WHERE {
			?v0 ` + PredSubscribes + ` ` + websiteIRI(1) + ` .
			?v0 ` + PredNickname + ` ?n }`},
		{"L5", "L", `SELECT ?v0 ?v1 ?g WHERE {
			?v0 ` + PredNationality + ` ` + countryIRI(1) + ` .
			?v0 ` + PredLikes + ` ?v1 .
			?v1 ` + PredGenre + ` ?g }`},
		// Stars: S1 has nine patterns, as in WatDiv.
		{"S1", "S", `SELECT ?v0 ?f ?l ?s ?g ?a ?n ?nick WHERE {
			?v0 ` + PredType + ` ` + ClassUser + ` .
			?v0 ` + PredFollows + ` ?f .
			?v0 ` + PredLikes + ` ?l .
			?v0 ` + PredSubscribes + ` ?s .
			?v0 ` + PredGender + ` ?g .
			?v0 ` + PredAge + ` ?a .
			?v0 ` + PredNationality + ` ?n .
			?v0 ` + PredNickname + ` ?nick .
			?v0 ` + PredEmail + ` ?e }`},
		{"S2", "S", `SELECT ?v0 ?g ?r WHERE {
			?v0 ` + PredType + ` ` + ClassProduct + ` .
			?v0 ` + PredGenre + ` ?g .
			?v0 ` + PredSoldBy + ` ?r .
			?v0 ` + PredCaption + ` ?c }`},
		{"S3", "S", `SELECT ?v0 ?c ?h WHERE {
			?v0 ` + PredType + ` ` + ClassRetailer + ` .
			?v0 ` + PredLocatedIn + ` ?c .
			?v0 ` + PredHomepage + ` ?h }`},
		{"S4", "S", `SELECT ?v0 ?u WHERE {
			?v0 ` + PredType + ` ` + ClassReview + ` .
			?v0 ` + PredReviewer + ` ?u .
			?v0 ` + PredRating + ` "5" }`},
		{"S5", "S", `SELECT ?v0 ?a ?n WHERE {
			?v0 ` + PredGender + ` "female" .
			?v0 ` + PredAge + ` ?a .
			?v0 ` + PredNationality + ` ` + countryIRI(0) + ` .
			?v0 ` + PredNickname + ` ?n }`},
		{"S6", "S", `SELECT ?v0 ?p WHERE {
			?v0 ` + PredGenre + ` ` + genreIRI(0) + ` .
			?v0 ` + PredSoldBy + ` ` + retailerIRI(0) + ` .
			?v0 ` + PredPrice + ` ?p }`},
		{"S7", "S", `SELECT ?v0 WHERE {
			?v0 ` + PredLocatedIn + ` ` + cityIRI(0) + ` .
			?v0 ` + PredHomepage + ` ?h .
			?v0 ` + PredType + ` ` + ClassRetailer + ` }`},
		// Snowflakes: joined stars.
		{"F1", "F", `SELECT ?u ?p ?r WHERE {
			?u ` + PredLikes + ` ?p .
			?u ` + PredNationality + ` ` + countryIRI(0) + ` .
			?p ` + PredGenre + ` ?g .
			?p ` + PredSoldBy + ` ?r .
			?r ` + PredLocatedIn + ` ?c }`},
		{"F2", "F", `SELECT ?p ?rev ?u WHERE {
			?p ` + PredHasReview + ` ?rev .
			?p ` + PredGenre + ` ` + genreIRI(1) + ` .
			?rev ` + PredReviewer + ` ?u .
			?u ` + PredNationality + ` ?n .
			?u ` + PredAge + ` ?a }`},
		{"F3", "F", `SELECT ?u ?w ?p WHERE {
			?u ` + PredSubscribes + ` ?w .
			?w ` + PredLanguage + ` "en" .
			?u ` + PredLikes + ` ?p .
			?p ` + PredSoldBy + ` ?r .
			?r ` + PredHomepage + ` ?h }`},
		{"F4", "F", `SELECT ?p ?r ?c ?co WHERE {
			?p ` + PredSoldBy + ` ?r .
			?r ` + PredLocatedIn + ` ?c .
			?c ` + PredPartOf + ` ?co .
			?p ` + PredGenre + ` ` + genreIRI(0) + ` .
			?p ` + PredHasReview + ` ?rev }`},
		{"F5", "F", `SELECT ?u ?f ?p WHERE {
			?u ` + PredFollows + ` ?f .
			?f ` + PredLikes + ` ?p .
			?p ` + PredSoldBy + ` ` + retailerIRI(1) + ` .
			?u ` + PredGender + ` "male" }`},
		// Complex.
		{"C1", "C", `SELECT ?u ?p ?rev ?u2 WHERE {
			?u ` + PredLikes + ` ?p .
			?p ` + PredHasReview + ` ?rev .
			?rev ` + PredReviewer + ` ?u2 .
			?u2 ` + PredNationality + ` ` + countryIRI(0) + ` .
			?u ` + PredSubscribes + ` ?w }`},
		{"C2", "C", `SELECT ?u ?f ?p ?r ?c WHERE {
			?u ` + PredFollows + ` ?f .
			?f ` + PredLikes + ` ?p .
			?p ` + PredSoldBy + ` ?r .
			?r ` + PredLocatedIn + ` ?c .
			?c ` + PredPartOf + ` ` + countryIRI(0) + ` .
			?u ` + PredNationality + ` ?n }`},
		{"C3", "C", `SELECT ?u ?f ?p ?g WHERE {
			?u ` + PredFollows + ` ?f .
			?u ` + PredLikes + ` ?p .
			?f ` + PredLikes + ` ?p2 .
			?p ` + PredGenre + ` ?g .
			?p2 ` + PredGenre + ` ?g }`},
	}
	return qs
}

// chain is the cyclic relation sequence for linear paths; chain[i] leads
// from the i-th node type to the next (user → user → product → review →
// user → ...).
var chain = []string{PredFollows, PredLikes, PredHasReview, PredReviewer}

// pathQuery builds a linear path query of the given length. start ∈
// {"const", "free"} selects whether ?v0 is fixed; phase offsets the
// predicate cycle.
func pathQuery(length, phase int, constStart string) string {
	src := "SELECT * WHERE {"
	for i := 0; i < length; i++ {
		s := fmt.Sprintf("?v%d", i)
		if i == 0 && constStart != "" {
			s = constStart
		}
		src += fmt.Sprintf(" %s %s ?v%d .", s, chain[(i+phase)%len(chain)], i+1)
	}
	return src + " }"
}

// ILQueries returns the incremental linear workload: for each family the
// path lengths 5–10 (named IL-f-len as in the paper's Table 4). IL-1 and
// IL-2 start from a constant user; IL-3 is unbounded and produces the huge
// result sets the paper discusses (IL-3-8 is the worst case).
func ILQueries() []Query {
	var qs []Query
	for l := 5; l <= 10; l++ {
		qs = append(qs, Query{fmt.Sprintf("IL-1-%d", l), "IL-1", pathQuery(l, 0, userIRI(1))})
	}
	for l := 5; l <= 10; l++ {
		qs = append(qs, Query{fmt.Sprintf("IL-2-%d", l), "IL-2", pathQuery(l, 1, userIRI(2))})
	}
	for l := 5; l <= 10; l++ {
		qs = append(qs, Query{fmt.Sprintf("IL-3-%d", l), "IL-3", pathQuery(l, 0, "")})
	}
	return qs
}

// nodeType reports the entity class of path node ?v_i under the given
// predicate-cycle phase: "U"ser, "P"roduct or "R"eview.
func nodeType(i, phase int) byte {
	return "UUPR"[(i+phase)%len(chain)]
}

// anchorPattern returns a selective pattern restricting node v (of the
// given class) by a constant attribute.
func anchorPattern(v string, class byte) string {
	switch class {
	case 'U':
		return fmt.Sprintf(" %s %s %s .", v, PredNationality, countryIRI(1))
	case 'P':
		return fmt.Sprintf(" %s %s %s .", v, PredGenre, genreIRI(1))
	default: // review
		return fmt.Sprintf(` %s %s "5" .`, v, PredRating)
	}
}

// MLQueries returns the mixed linear workload: paths whose selectivity
// comes from a constant at the far end (ML-1, selective) or from a mid-path
// attribute restriction (ML-2, larger intermediates). The anchor predicate
// matches the class of the anchored node so every length has answers.
func MLQueries() []Query {
	var qs []Query
	for l := 5; l <= 10; l++ {
		src := "SELECT * WHERE {"
		for i := 0; i < l-1; i++ {
			src += fmt.Sprintf(" ?v%d %s ?v%d .", i, chain[i%len(chain)], i+1)
		}
		src += anchorPattern(fmt.Sprintf("?v%d", l-1), nodeType(l-1, 0))
		src += " }"
		qs = append(qs, Query{fmt.Sprintf("ML-1-%d", l), "ML-1", src})
	}
	for l := 5; l <= 10; l++ {
		src := "SELECT * WHERE {"
		for i := 0; i < l-1; i++ {
			src += fmt.Sprintf(" ?v%d %s ?v%d .", i, chain[(i+1)%len(chain)], i+1)
		}
		mid := l / 2
		src += anchorPattern(fmt.Sprintf("?v%d", mid), nodeType(mid, 1))
		src += " }"
		qs = append(qs, Query{fmt.Sprintf("ML-2-%d", l), "ML-2", src})
	}
	return qs
}

// AllQueries returns basic + IL + ML.
func AllQueries() []Query {
	out := BasicQueries()
	out = append(out, ILQueries()...)
	out = append(out, MLQueries()...)
	return out
}
