package rdf

import (
	"context"
	"strings"
	"testing"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

func newCloud(t testing.TB, machines int) *memcloud.Cloud {
	c := memcloud.New(memcloud.Config{
		Machines: machines,
		Msg:      msg.Options{FlushInterval: time.Millisecond, CallTimeout: 10 * time.Second},
	})
	t.Cleanup(c.Close)
	return c
}

func smallStore(t testing.TB, machines int) *Store {
	t.Helper()
	s := NewStore(newCloud(t, machines))
	b := s.NewBuilder()
	b.AddEntity("u1", TypeUniversity)
	b.AddEntity("d1", TypeDepartment)
	b.AddEntity("d2", TypeDepartment)
	b.AddEntity("p1", TypeProfessor)
	b.AddEntity("p2", TypeProfessor)
	b.AddEntity("s1", TypeStudent)
	b.AddEntity("s2", TypeStudent)
	b.AddEntity("c1", TypeCourse)
	b.AddEntity("c2", TypeCourse)
	b.AddTriple("d1", PredSubOrganizationOf, "u1")
	b.AddTriple("d2", PredSubOrganizationOf, "u1")
	b.AddTriple("p1", PredWorksFor, "d1")
	b.AddTriple("p2", PredWorksFor, "d2")
	b.AddTriple("p1", PredTeacherOf, "c1")
	b.AddTriple("p2", PredTeacherOf, "c2")
	b.AddTriple("s1", PredTakesCourse, "c1")
	b.AddTriple("s2", PredTakesCourse, "c1")
	b.AddTriple("s2", PredTakesCourse, "c2")
	b.AddTriple("s1", PredMemberOf, "d1")
	b.AddTriple("s2", PredMemberOf, "d1")
	b.AddTriple("s1", PredDegreeFrom, "u1")
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s
}

func names(t *testing.T, s *Store, bindings []Binding, v string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, b := range bindings {
		name, err := s.g.On(0).Name(context.Background(), b[v])
		if err != nil {
			t.Fatal(err)
		}
		out[name] = true
	}
	return out
}

func TestConstantObjectLookup(t *testing.T) {
	s := smallStore(t, 2)
	res, err := s.Execute(context.Background(), QueryStudentsTakingCourse("c1"))
	if err != nil {
		t.Fatal(err)
	}
	got := names(t, s, res, "x")
	if len(got) != 2 || !got["s1"] || !got["s2"] {
		t.Fatalf("students of c1 = %v", got)
	}
}

func TestTwoPatternJoin(t *testing.T) {
	s := smallStore(t, 2)
	res, err := s.Execute(context.Background(), QueryProfessorsOfUniversity("u1"))
	if err != nil {
		t.Fatal(err)
	}
	got := names(t, s, res, "p")
	if len(got) != 2 || !got["p1"] || !got["p2"] {
		t.Fatalf("professors = %v", got)
	}
}

func TestIntersectionJoin(t *testing.T) {
	s := smallStore(t, 2)
	res, err := s.Execute(context.Background(), QueryMembersWithDegreeFrom("d1", "u1"))
	if err != nil {
		t.Fatal(err)
	}
	got := names(t, s, res, "x")
	// Only s1 is a member of d1 AND holds a degree from u1.
	if len(got) != 1 || !got["s1"] {
		t.Fatalf("members = %v", got)
	}
}

func TestChainJoin(t *testing.T) {
	s := smallStore(t, 2)
	res, err := s.Execute(context.Background(), QueryStudentsOfTeacher("p1"))
	if err != nil {
		t.Fatal(err)
	}
	got := names(t, s, res, "x")
	if len(got) != 2 || !got["s1"] || !got["s2"] {
		t.Fatalf("students of p1 = %v", got)
	}
	res, err = s.Execute(context.Background(), QueryStudentsOfTeacher("p2"))
	if err != nil {
		t.Fatal(err)
	}
	got = names(t, s, res, "x")
	if len(got) != 1 || !got["s2"] {
		t.Fatalf("students of p2 = %v", got)
	}
}

func TestNoMatches(t *testing.T) {
	s := smallStore(t, 2)
	res, err := s.Execute(context.Background(), QueryStudentsTakingCourse("no-such-course"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("matches = %v", res)
	}
	// Unknown predicate.
	res, err = s.Execute(context.Background(), &Query{
		Patterns: []TriplePattern{{S: V("x"), Pred: "ub:never", O: I("c1")}},
	})
	if err != nil || len(res) != 0 {
		t.Fatalf("unknown predicate: %v %v", res, err)
	}
}

func TestTypeConstraintFilters(t *testing.T) {
	s := smallStore(t, 2)
	// Without the Student type constraint, takesCourse c1 still only
	// matches students, but a constraint on a wrong type must empty it.
	q := QueryStudentsTakingCourse("c1")
	q.Types["x"] = TypeProfessor
	res, err := s.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("professors taking courses: %v", res)
	}
}

func TestUnboundPatternNeedsType(t *testing.T) {
	s := smallStore(t, 2)
	_, err := s.Execute(context.Background(), &Query{
		Patterns: []TriplePattern{{S: V("x"), Pred: PredTakesCourse, O: V("y")}},
	})
	if err == nil {
		t.Fatal("unbound pattern without type constraint accepted")
	}
	// With a type constraint it scans.
	res, err := s.Execute(context.Background(), &Query{
		Patterns: []TriplePattern{{S: V("x"), Pred: PredTakesCourse, O: V("y")}},
		Types:    map[string]string{"x": TypeStudent},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 { // s1-c1, s2-c1, s2-c2
		t.Fatalf("full scan join = %d rows", len(res))
	}
}

func TestGenerateLUBMScale(t *testing.T) {
	s := NewStore(newCloud(t, 4))
	triples, err := GenerateLUBM(context.Background(), s, LUBMConfig{Universities: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if triples < 500 {
		t.Fatalf("only %d triples generated", triples)
	}
	// Entity counts: 2 universities, 10 departments.
	if got := len(s.scanByLabel(s.types[TypeUniversity])); got != 2 {
		t.Fatalf("universities = %d", got)
	}
	if got := len(s.scanByLabel(s.types[TypeDepartment])); got != 10 {
		t.Fatalf("departments = %d", got)
	}
}

func TestLUBMQueriesReturnResults(t *testing.T) {
	s := NewStore(newCloud(t, 4))
	if _, err := GenerateLUBM(context.Background(), s, LUBMConfig{Universities: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	queries := []*Query{
		QueryStudentsTakingCourse("http://univ0/dept0/course0"),
		QueryProfessorsOfUniversity("http://univ0"),
		QueryMembersWithDegreeFrom("http://univ0/dept0", "http://univ1"),
		QueryStudentsOfTeacher("http://univ0/dept0/prof0"),
	}
	for i, q := range queries {
		res, err := s.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("Q%d: %v", i, err)
		}
		t.Logf("Q%d: %d rows", i, len(res))
		// Q3 (professors of univ0) must return exactly 5 depts * 7 profs.
		if i == 1 && len(res) != 35 {
			t.Fatalf("Q3 rows = %d, want 35", len(res))
		}
		// Every binding must satisfy its type constraints.
		for _, b := range res {
			for v, typeIRI := range q.Types {
				id, ok := b[v]
				if !ok {
					continue
				}
				if !s.typeOK(context.Background(), id, v, map[string]string{v: typeIRI}) {
					name, _ := s.g.On(0).Name(context.Background(), id)
					t.Fatalf("Q%d: binding %s=%s violates type %s", i, v, name, typeIRI)
				}
			}
		}
	}
}

func TestResultsConsistentAcrossMachineCounts(t *testing.T) {
	// The same dataset sharded over 1, 2, and 4 machines must give
	// identical answers.
	counts := map[int]int{}
	for _, machines := range []int{1, 2, 4} {
		s := NewStore(newCloud(t, machines))
		if _, err := GenerateLUBM(context.Background(), s, LUBMConfig{Universities: 1, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		res, err := s.Execute(context.Background(), QueryProfessorsOfUniversity("http://univ0"))
		if err != nil {
			t.Fatal(err)
		}
		counts[machines] = len(res)
	}
	if counts[1] != counts[2] || counts[2] != counts[4] {
		t.Fatalf("row counts differ by machine count: %v", counts)
	}
}

func TestEntityNamesRoundTrip(t *testing.T) {
	s := smallStore(t, 2)
	name, err := s.g.On(0).Name(context.Background(), EntityID("p1"))
	if err != nil || !strings.Contains(name, "p1") {
		t.Fatalf("Name = %q, %v", name, err)
	}
}
