package cell

import "testing"

// mustStruct is NewStruct that panics on error, for the static schemas
// these tests use.
func mustStruct(name string, cell bool, fields []Field) *StructType {
	st, err := NewStruct(name, cell, fields)
	if err != nil {
		panic(err)
	}
	return st
}

// movieSchema mirrors the paper's Figure 4 example.
func movieSchema() *StructType {
	return mustStruct("Movie", true, []Field{
		{Name: "Name", Type: Primitive(KindString)},
		{Name: "Year", Type: Primitive(KindInt)},
		{Name: "Rating", Type: Primitive(KindDouble)},
		{Name: "Actors", Type: ListOf(Primitive(KindLong)),
			Attrs: map[string]string{"EdgeType": "SimpleEdge", "ReferencedCell": "Actor"}},
	})
}

func TestFixedSize(t *testing.T) {
	if n, ok := Primitive(KindLong).FixedSize(); !ok || n != 8 {
		t.Fatalf("long: %d %v", n, ok)
	}
	if _, ok := Primitive(KindString).FixedSize(); ok {
		t.Fatal("string should be variable")
	}
	fixed := mustStruct("F", false, []Field{
		{Name: "A", Type: Primitive(KindInt)},
		{Name: "B", Type: Primitive(KindDouble)},
	})
	if n, ok := StructOf(fixed).FixedSize(); !ok || n != 12 {
		t.Fatalf("fixed struct: %d %v", n, ok)
	}
	if _, ok := StructOf(movieSchema()).FixedSize(); ok {
		t.Fatal("movie should be variable")
	}
	if _, ok := ListOf(Primitive(KindLong)).FixedSize(); ok {
		t.Fatal("lists are variable")
	}
}

func TestDuplicateFieldRejected(t *testing.T) {
	_, err := NewStruct("Bad", false, []Field{
		{Name: "A", Type: Primitive(KindInt)},
		{Name: "A", Type: Primitive(KindInt)},
	})
	if err == nil {
		t.Fatal("duplicate field accepted")
	}
}

func TestEncodeTypeErrors(t *testing.T) {
	st := movieSchema()
	cases := []map[string]Value{
		{"Name": 42},                 // int for string
		{"Year": "nope"},             // string for int
		{"Actors": "nope"},           // string for list
		{"Actors": []Value{"x"}},     // string elems for List<long>
		{"Rating": []int64{1, 2, 3}}, // list for double
	}
	for i, in := range cases {
		if _, err := Encode(st, in); err == nil {
			t.Fatalf("case %d: bad value accepted", i)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	st := movieSchema()
	in := map[string]Value{"Name": "The Matrix", "Year": 1999, "Actors": []int64{1, 2, 3, 4, 5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(st, in); err != nil {
			b.Fatal(err)
		}
	}
}
