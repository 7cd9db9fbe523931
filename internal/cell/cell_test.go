package cell

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"trinity/internal/hash"
)

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

func allKindsSchema() *StructType {
	inner := mustStruct("Point", false, []Field{
		{Name: "X", Type: Primitive(KindInt)},
		{Name: "Y", Type: Primitive(KindInt)},
	})
	return mustStruct("Everything", true, []Field{
		{Name: "B", Type: Primitive(KindByte)},
		{Name: "Flag", Type: Primitive(KindBool)},
		{Name: "I", Type: Primitive(KindInt)},
		{Name: "L", Type: Primitive(KindLong)},
		{Name: "F", Type: Primitive(KindFloat)},
		{Name: "D", Type: Primitive(KindDouble)},
		{Name: "S", Type: Primitive(KindString)},
		{Name: "P", Type: StructOf(inner)},
		{Name: "Names", Type: ListOf(Primitive(KindString))},
		{Name: "Ids", Type: ListOf(Primitive(KindLong))},
	})
}

func TestEncodeAccessRoundTrip(t *testing.T) {
	st := movieSchema()
	blob, err := Encode(st, map[string]Value{
		"Name":   "The Matrix",
		"Year":   1999,
		"Rating": 8.7,
		"Actors": []int64{101, 102, 103},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAccessor(st, blob)
	if got := a.MustField("Name").Str(); got != "The Matrix" {
		t.Fatalf("Name = %q", got)
	}
	if got := a.MustField("Year").Int(); got != 1999 {
		t.Fatalf("Year = %d", got)
	}
	if got := a.MustField("Rating").Double(); got != 8.7 {
		t.Fatalf("Rating = %v", got)
	}
	actors := a.MustField("Actors").List()
	if actors.Len() != 3 {
		t.Fatalf("Actors len = %d", actors.Len())
	}
	if got := actors.Longs(); !reflect.DeepEqual(got, []int64{101, 102, 103}) {
		t.Fatalf("Actors = %v", got)
	}
	if got := actors.At(1).Long(); got != 102 {
		t.Fatalf("Actors[1] = %d", got)
	}
}

func TestAllKindsRoundTrip(t *testing.T) {
	st := allKindsSchema()
	in := map[string]Value{
		"B":     byte(7),
		"Flag":  true,
		"I":     int32(-42),
		"L":     int64(1) << 60,
		"F":     float32(3.5),
		"D":     math.Pi,
		"S":     "héllo, 世界",
		"P":     map[string]Value{"X": int32(1), "Y": int32(-2)},
		"Names": []Value{"a", "", "ccc"},
		"Ids":   []int64{-1, 0, 1},
	}
	blob, err := Encode(st, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(st, blob)
	if err != nil {
		t.Fatal(err)
	}
	if out["B"].(byte) != 7 || out["Flag"].(bool) != true {
		t.Fatal("byte/bool mismatch")
	}
	if out["I"].(int32) != -42 || out["L"].(int64) != 1<<60 {
		t.Fatal("int/long mismatch")
	}
	if out["F"].(float32) != 3.5 || out["D"].(float64) != math.Pi {
		t.Fatal("float/double mismatch")
	}
	if out["S"].(string) != "héllo, 世界" {
		t.Fatal("string mismatch")
	}
	p := out["P"].(map[string]Value)
	if p["X"].(int32) != 1 || p["Y"].(int32) != -2 {
		t.Fatal("nested struct mismatch")
	}
	names := out["Names"].([]Value)
	if len(names) != 3 || names[0].(string) != "a" || names[2].(string) != "ccc" {
		t.Fatalf("Names = %v", names)
	}
	if !reflect.DeepEqual(out["Ids"].([]int64), []int64{-1, 0, 1}) {
		t.Fatal("Ids mismatch")
	}
}

func TestZeroValuesForMissingFields(t *testing.T) {
	st := allKindsSchema()
	blob, err := Encode(st, map[string]Value{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAccessor(st, blob)
	if a.MustField("B").Byte() != 0 || a.MustField("Flag").Bool() {
		t.Fatal("missing fields not zero")
	}
	if a.MustField("S").Str() != "" {
		t.Fatal("missing string not empty")
	}
	if a.MustField("Ids").List().Len() != 0 {
		t.Fatal("missing list not empty")
	}
}

func TestInPlaceWrites(t *testing.T) {
	st := movieSchema()
	blob, _ := Encode(st, map[string]Value{
		"Name": "X", "Year": 2000, "Rating": 5.0, "Actors": []int64{1, 2},
	})
	a := NewAccessor(st, blob)
	// Fixed-size fields after a variable field write in place correctly.
	a.MustField("Year").SetInt(2024)
	a.MustField("Rating").SetDouble(9.9)
	a.MustField("Actors").List().At(0).SetLong(77)
	if a.MustField("Year").Int() != 2024 {
		t.Fatal("SetInt lost")
	}
	if a.MustField("Rating").Double() != 9.9 {
		t.Fatal("SetDouble lost")
	}
	if a.MustField("Actors").List().At(0).Long() != 77 {
		t.Fatal("list SetLong lost")
	}
	// Name must be untouched by the in-place writes.
	if a.MustField("Name").Str() != "X" {
		t.Fatal("neighboring field corrupted")
	}
}

func TestVariableListOfStrings(t *testing.T) {
	st := mustStruct("T", false, []Field{
		{Name: "Ss", Type: ListOf(Primitive(KindString))},
		{Name: "After", Type: Primitive(KindLong)},
	})
	blob, err := Encode(st, map[string]Value{
		"Ss":    []Value{"aa", "b", "", "dddd"},
		"After": int64(99),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAccessor(st, blob)
	l := a.MustField("Ss").List()
	want := []string{"aa", "b", "", "dddd"}
	for i, w := range want {
		if got := l.At(i).Str(); got != w {
			t.Fatalf("Ss[%d] = %q, want %q", i, got, w)
		}
	}
	// Field after a variable-length list resolves correctly.
	if got := a.MustField("After").Long(); got != 99 {
		t.Fatalf("After = %d", got)
	}
}

func TestUnknownField(t *testing.T) {
	a := NewAccessor(movieSchema(), nil)
	if _, err := a.Field("Nope"); !errors.Is(err, ErrNoField) {
		t.Fatalf("err = %v, want ErrNoField", err)
	}
}

func TestShortBlobDetected(t *testing.T) {
	st := movieSchema()
	blob, _ := Encode(st, map[string]Value{"Name": "ABCDEFGH", "Actors": []int64{1}})
	for _, cut := range []int{0, 3, 7, len(blob) - 1} {
		a := NewAccessor(st, blob[:cut])
		if _, err := a.Size(); !errors.Is(err, ErrShortBlob) {
			t.Fatalf("cut %d: Size err = %v, want ErrShortBlob", cut, err)
		}
	}
	if _, err := Decode(st, blob[:5]); !errors.Is(err, ErrShortBlob) {
		t.Fatalf("Decode short = %v", err)
	}
}

func TestWrongKindPanics(t *testing.T) {
	st := movieSchema()
	blob, _ := Encode(st, map[string]Value{"Name": "x"})
	a := NewAccessor(st, blob)
	defer func() {
		if recover() == nil {
			t.Fatal("Long() on string field should panic")
		}
	}()
	a.MustField("Name").Long()
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

func TestEncodeDecodePropertyLongs(t *testing.T) {
	// Property: Encode∘Decode is the identity for arbitrary movie cells.
	st := movieSchema()
	f := func(seed uint64) bool {
		rng := hash.NewRNG(seed)
		nameLen := rng.Intn(50)
		name := make([]byte, nameLen)
		for i := range name {
			name[i] = byte('a' + rng.Intn(26))
		}
		ids := make([]int64, rng.Intn(100))
		for i := range ids {
			ids[i] = int64(rng.Next())
		}
		in := map[string]Value{
			"Name":   string(name),
			"Year":   int32(rng.Next()),
			"Rating": rng.Float64() * 10,
			"Actors": ids,
		}
		blob, err := Encode(st, in)
		if err != nil {
			return false
		}
		out, err := Decode(st, blob)
		if err != nil {
			return false
		}
		if out["Name"].(string) != in["Name"].(string) {
			return false
		}
		if out["Year"].(int32) != in["Year"].(int32) {
			return false
		}
		if out["Rating"].(float64) != in["Rating"].(float64) {
			return false
		}
		gotIds := out["Actors"].([]int64)
		if len(gotIds) != len(ids) {
			return false
		}
		for i := range ids {
			if gotIds[i] != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorZeroCopySharing(t *testing.T) {
	// The accessor must read through to the same memory, not a copy.
	st := movieSchema()
	blob, _ := Encode(st, map[string]Value{"Name": "abc", "Actors": []int64{1}})
	a := NewAccessor(st, blob)
	blob[bytes.Index(blob, []byte("abc"))] = 'Z'
	if a.MustField("Name").Str() != "Zbc" {
		t.Fatal("accessor read a copy, not the blob")
	}
}

func BenchmarkAccessorFixedField(b *testing.B) {
	st := movieSchema()
	blob, _ := Encode(st, map[string]Value{"Name": "The Matrix", "Year": 1999, "Actors": []int64{1, 2, 3}})
	a := NewAccessor(st, blob)
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += a.MustField("Year").Int()
	}
	_ = sink
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
