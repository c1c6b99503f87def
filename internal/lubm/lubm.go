// Package lubm provides a deterministic generator for LUBM-like university
// data plus the ten-query workload used in the paper's LUBM experiments
// (Tables 2, 5, 6 and Figures 2, 3).
//
// The original Lehigh University Benchmark generator (UBA) is a Java tool
// with data files this environment does not have; this generator reproduces
// the structural properties PARJ's evaluation depends on — the entity
// hierarchy (universities → departments → faculty/students/courses), 17
// predicates, heavy subject sharing for star joins, and long join chains
// via advisor/degree relations — at a configurable scale. Scale is the
// number of universities, as in LUBM; per-university entity counts are
// scaled-down LUBM ratios so laptop-sized runs keep the paper's workload
// shape.
package lubm

import (
	"fmt"
	"math/rand"

	"parj/internal/rdf"
)

// ns is the IRI namespace of generated entities and predicates.
const ns = "http://lubm.repro/"

// Predicate IRIs (17, as the paper counts for LUBM 10240).
var (
	PredType           = iri("type")
	PredName           = iri("name")
	PredTeacherOf      = iri("teacherOf")
	PredWorksFor       = iri("worksFor")
	PredSubOrgOf       = iri("subOrganizationOf")
	PredUndergradFrom  = iri("undergraduateDegreeFrom")
	PredMastersFrom    = iri("mastersDegreeFrom")
	PredDoctoralFrom   = iri("doctoralDegreeFrom")
	PredAdvisor        = iri("advisor")
	PredTakesCourse    = iri("takesCourse")
	PredMemberOf       = iri("memberOf")
	PredHeadOf         = iri("headOf")
	PredPubAuthor      = iri("publicationAuthor")
	PredResearchInt    = iri("researchInterest")
	PredEmail          = iri("emailAddress")
	PredTelephone      = iri("telephone")
	PredTeachingAsstOf = iri("teachingAssistantOf")
)

// Class IRIs.
var (
	ClassUniversity   = iri("University")
	ClassDepartment   = iri("Department")
	ClassFullProf     = iri("FullProfessor")
	ClassAssocProf    = iri("AssociateProfessor")
	ClassAsstProf     = iri("AssistantProfessor")
	ClassLecturer     = iri("Lecturer")
	ClassCourse       = iri("Course")
	ClassGradCourse   = iri("GraduateCourse")
	ClassUndergrad    = iri("UndergraduateStudent")
	ClassGradStudent  = iri("GraduateStudent")
	ClassPublication  = iri("Publication")
	ClassResearchArea = iri("ResearchArea")
)

func iri(local string) string { return "<" + ns + local + ">" }

// Config tunes per-university entity counts. The zero value selects
// defaults that yield roughly 8k triples per university.
type Config struct {
	DeptsPerUniversity int // default 6
	ProfsPerDept       int // default 12 (split across ranks)
	LecturersPerDept   int // default 4
	CoursesPerProf     int // default 3
	UndergradsPerDept  int // default 120
	GradsPerDept       int // default 40
	PubsPerProf        int // default 3
	ResearchAreas      int // default 25 (global)
}

func (c *Config) fill() {
	if c.DeptsPerUniversity == 0 {
		c.DeptsPerUniversity = 6
	}
	if c.ProfsPerDept == 0 {
		c.ProfsPerDept = 12
	}
	if c.LecturersPerDept == 0 {
		c.LecturersPerDept = 4
	}
	if c.CoursesPerProf == 0 {
		c.CoursesPerProf = 3
	}
	if c.UndergradsPerDept == 0 {
		c.UndergradsPerDept = 120
	}
	if c.GradsPerDept == 0 {
		c.GradsPerDept = 40
	}
	if c.PubsPerProf == 0 {
		c.PubsPerProf = 3
	}
	if c.ResearchAreas == 0 {
		c.ResearchAreas = 25
	}
}

// Generate emits the triples for scale universities to emit, using
// deterministic per-university randomness (seeded by university index) so
// output is reproducible and independent of emission order.
func Generate(scale int, cfg Config, emit func(rdf.Triple)) {
	cfg.fill()
	t := func(s, p, o string) { emit(rdf.Triple{S: s, P: p, O: o}) }
	for i := 0; i < cfg.ResearchAreas; i++ {
		area := fmt.Sprintf("<%sarea%d>", ns, i)
		t(area, PredType, ClassResearchArea)
	}
	for u := 0; u < scale; u++ {
		generateUniversity(u, scale, cfg, t)
	}
}

// Triples generates and collects all triples (convenient for tests and
// small scales).
func Triples(scale int, cfg Config) []rdf.Triple {
	var out []rdf.Triple
	Generate(scale, cfg, func(t rdf.Triple) { out = append(out, t) })
	return out
}

func generateUniversity(u, scale int, cfg Config, t func(s, p, o string)) {
	rng := rand.New(rand.NewSource(int64(u)*104729 + 7))
	uni := uniIRI(u)
	t(uni, PredType, ClassUniversity)
	t(uni, PredName, fmt.Sprintf("%q", fmt.Sprintf("University%d", u)))

	profRanks := []string{ClassFullProf, ClassAssocProf, ClassAsstProf}
	for d := 0; d < cfg.DeptsPerUniversity; d++ {
		dept := deptIRI(u, d)
		t(dept, PredType, ClassDepartment)
		t(dept, PredSubOrgOf, uni)

		var courses []string
		var faculty []string
		for p := 0; p < cfg.ProfsPerDept; p++ {
			prof := profIRI(u, d, p)
			faculty = append(faculty, prof)
			t(prof, PredType, profRanks[p%len(profRanks)])
			t(prof, PredWorksFor, dept)
			t(prof, PredName, fmt.Sprintf("%q", fmt.Sprintf("Prof%d_%d_%d", u, d, p)))
			t(prof, PredEmail, fmt.Sprintf("%q", fmt.Sprintf("prof%d.%d.%d@u%d.edu", u, d, p, u)))
			t(prof, PredTelephone, fmt.Sprintf("%q", fmt.Sprintf("+1-555-%04d", rng.Intn(10000))))
			t(prof, PredResearchInt, fmt.Sprintf("<%sarea%d>", ns, rng.Intn(cfg.ResearchAreas)))
			// Degrees link professors to (other) universities: the join
			// chain LUBM query 2 exploits.
			t(prof, PredUndergradFrom, uniIRI(rng.Intn(scale)))
			t(prof, PredMastersFrom, uniIRI(rng.Intn(scale)))
			t(prof, PredDoctoralFrom, uniIRI(rng.Intn(scale)))
			if p == 0 {
				t(prof, PredHeadOf, dept)
			}
			for c := 0; c < cfg.CoursesPerProf; c++ {
				course := courseIRI(u, d, p, c)
				courses = append(courses, course)
				class := ClassCourse
				if c%2 == 1 {
					class = ClassGradCourse
				}
				t(course, PredType, class)
				t(prof, PredTeacherOf, course)
			}
			for pb := 0; pb < cfg.PubsPerProf; pb++ {
				pub := fmt.Sprintf("<%suniv%d/dept%d/pub%d_%d>", ns, u, d, p, pb)
				t(pub, PredType, ClassPublication)
				t(pub, PredPubAuthor, prof)
			}
		}
		for l := 0; l < cfg.LecturersPerDept; l++ {
			lect := fmt.Sprintf("<%suniv%d/dept%d/lecturer%d>", ns, u, d, l)
			faculty = append(faculty, lect)
			t(lect, PredType, ClassLecturer)
			t(lect, PredWorksFor, dept)
			t(lect, PredUndergradFrom, uniIRI(rng.Intn(scale)))
		}

		for s := 0; s < cfg.UndergradsPerDept; s++ {
			stu := fmt.Sprintf("<%suniv%d/dept%d/ugrad%d>", ns, u, d, s)
			t(stu, PredType, ClassUndergrad)
			t(stu, PredMemberOf, dept)
			nCourses := 2 + rng.Intn(3)
			for c := 0; c < nCourses; c++ {
				t(stu, PredTakesCourse, courses[rng.Intn(len(courses))])
			}
			if rng.Intn(5) == 0 {
				t(stu, PredAdvisor, faculty[rng.Intn(len(faculty))])
			}
		}
		for s := 0; s < cfg.GradsPerDept; s++ {
			stu := gradIRI(u, d, s)
			t(stu, PredType, ClassGradStudent)
			t(stu, PredMemberOf, dept)
			// Grad students hold an undergraduate degree from some
			// university — LUBM query 2's triangle needs members whose
			// degree university is the department's own university.
			degreeUni := rng.Intn(scale)
			if rng.Intn(2) == 0 {
				degreeUni = u
			}
			t(stu, PredUndergradFrom, uniIRI(degreeUni))
			t(stu, PredAdvisor, faculty[rng.Intn(len(faculty))])
			t(stu, PredEmail, fmt.Sprintf("%q", fmt.Sprintf("grad%d.%d.%d@u%d.edu", u, d, s, u)))
			nCourses := 1 + rng.Intn(3)
			for c := 0; c < nCourses; c++ {
				t(stu, PredTakesCourse, courses[rng.Intn(len(courses))])
			}
			if s%4 == 0 {
				t(stu, PredTeachingAsstOf, courses[rng.Intn(len(courses))])
			}
		}
	}
}

func uniIRI(u int) string        { return fmt.Sprintf("<%suniv%d>", ns, u) }
func deptIRI(u, d int) string    { return fmt.Sprintf("<%suniv%d/dept%d>", ns, u, d) }
func profIRI(u, d, p int) string { return fmt.Sprintf("<%suniv%d/dept%d/prof%d>", ns, u, d, p) }
func gradIRI(u, d, s int) string { return fmt.Sprintf("<%suniv%d/dept%d/grad%d>", ns, u, d, s) }
func courseIRI(u, d, p, c int) string {
	return fmt.Sprintf("<%suniv%d/dept%d/course%d_%d>", ns, u, d, p, c)
}

// Query is one benchmark query.
type Query struct {
	Name   string
	SPARQL string
}

// Queries returns the L1–L10 workload: L1–L7 follow the seven queries
// commonly used for systems without reasoning (shape and selectivity
// classes from the Trinity.RDF set), L8–L10 the three extra queries from
// the dynamic-exchange-operator paper. L4–L6 are the selective,
// few-millisecond queries; L2 and L9 produce the large results/intermediates
// the paper discusses.
func Queries() []Query {
	return []Query{
		{"L1", `SELECT ?x ?y ?z WHERE {
			?x ` + PredType + ` ` + ClassGradStudent + ` .
			?x ` + PredTakesCourse + ` ?y .
			?z ` + PredTeacherOf + ` ?y .
			?z ` + PredType + ` ` + ClassFullProf + ` .
			?z ` + PredWorksFor + ` ?w }`},
		{"L2", `SELECT ?x ?y ?z WHERE {
			?x ` + PredMemberOf + ` ?z .
			?z ` + PredSubOrgOf + ` ?y .
			?x ` + PredUndergradFrom + ` ?y }`},
		{"L3", `SELECT ?x ?y ?z WHERE {
			?x ` + PredType + ` ` + ClassGradStudent + ` .
			?x ` + PredAdvisor + ` ?y .
			?y ` + PredWorksFor + ` ?z .
			?z ` + PredSubOrgOf + ` ?w .
			?x ` + PredMemberOf + ` ?z }`},
		{"L4", `SELECT ?y WHERE {
			` + profIRI(0, 0, 0) + ` ` + PredWorksFor + ` ?x .
			` + profIRI(0, 0, 0) + ` ` + PredTeacherOf + ` ?y .
			?x ` + PredSubOrgOf + ` ?z }`},
		{"L5", `SELECT ?x WHERE {
			?x ` + PredMemberOf + ` ` + deptIRI(0, 0) + ` .
			?x ` + PredType + ` ` + ClassGradStudent + ` }`},
		{"L6", `SELECT ?x ?y WHERE {
			?x ` + PredAdvisor + ` ` + profIRI(0, 0, 1) + ` .
			?x ` + PredTakesCourse + ` ?y }`},
		{"L7", `SELECT ?x ?y ?z WHERE {
			?x ` + PredTakesCourse + ` ?y .
			?z ` + PredTeacherOf + ` ?y .
			?z ` + PredWorksFor + ` ?w .
			?w ` + PredSubOrgOf + ` ?u }`},
		{"L8", `SELECT ?x ?y WHERE {
			?x ` + PredMemberOf + ` ?z .
			?z ` + PredSubOrgOf + ` ?y .
			?x ` + PredUndergradFrom + ` ?y .
			?x ` + PredEmail + ` ?e .
			?x ` + PredAdvisor + ` ?a }`},
		{"L9", `SELECT ?x ?y ?z WHERE {
			?x ` + PredAdvisor + ` ?y .
			?y ` + PredTeacherOf + ` ?z .
			?x ` + PredTakesCourse + ` ?z }`},
		{"L10", `SELECT ?x ?y WHERE {
			?x ` + PredTakesCourse + ` ?c .
			?y ` + PredTeacherOf + ` ?c .
			?y ` + PredResearchInt + ` ?r .
			?x ` + PredMemberOf + ` ?d .
			?y ` + PredWorksFor + ` ?d }`},
	}
}
