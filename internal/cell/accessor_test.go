package cell_test

//go:generate go run ../../cmd/tslc -pkg cell_test -o fixture_gen_test.go testdata/fixture.tsl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"testing/quick"

	"trinity/internal/cell"
	"trinity/internal/hash"
	"trinity/internal/tsl"
)

// The generated code in fixture_gen_test.go, compiled from
// testdata/fixture.tsl, is checked here against cell.Encode over the same
// compiled schema: the reference encoder and the generated codec and
// accessors must agree byte for byte.

var fixture = func() *tsl.Script {
	src, err := os.ReadFile("testdata/fixture.tsl")
	if err != nil {
		panic(err)
	}
	return tsl.MustCompile(string(src))
}()

func encode(t testing.TB, st string, v map[string]cell.Value) []byte {
	t.Helper()
	b, err := cell.Encode(fixture.Struct(st), v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFixtureIsGenerated pins fixture_gen_test.go to what tslc emits for
// testdata/fixture.tsl today.
func TestFixtureIsGenerated(t *testing.T) {
	want, err := os.ReadFile("fixture_gen_test.go")
	if err != nil {
		t.Fatal(err)
	}
	got, err := tsl.Generate("cell_test", fixture)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("internal/cell/fixture_gen_test.go is stale; regenerate with make gen")
	}
}

// everything returns one value of every TSL kind, as the generated struct
// and as cell.Encode's input.
func everything() (*Everything, map[string]cell.Value) {
	x := &Everything{
		B: 7, Flag: true, I: -42, L: 1 << 60, F: 3.5, D: math.Pi, S: "héllo, 世界",
		P:      Point{X: 1, Y: -2},
		T:      Tag{Key: "k", Values: []float64{0.5, -1}},
		Names:  []string{"a", "", "ccc"},
		Ids:    []int64{-1, 0, 1},
		Bits:   []bool{true, false, true},
		Points: []Point{{X: 3, Y: 4}, {X: 5, Y: 6}},
		Tags:   []Tag{{Key: "x"}, {Key: "yy", Values: []float64{2}}},
		Matrix: [][]int32{{1, 2}, nil, {3}},
		Next:   1<<63 + 5,
		Links:  []uint64{math.MaxUint64, 2},
		After:  -0.25,
	}
	pt := func(x, y int) map[string]cell.Value { return map[string]cell.Value{"X": x, "Y": y} }
	v := map[string]cell.Value{
		"B": byte(7), "Flag": true, "I": int32(-42), "L": int64(1) << 60,
		"F": float32(3.5), "D": math.Pi, "S": "héllo, 世界",
		"P":      pt(1, -2),
		"T":      map[string]cell.Value{"Key": "k", "Values": []cell.Value{0.5, -1.0}},
		"Names":  []cell.Value{"a", "", "ccc"},
		"Ids":    []int64{-1, 0, 1},
		"Bits":   []cell.Value{true, false, true},
		"Points": []cell.Value{pt(3, 4), pt(5, 6)},
		"Tags": []cell.Value{
			map[string]cell.Value{"Key": "x"},
			map[string]cell.Value{"Key": "yy", "Values": []cell.Value{2.0}},
		},
		"Matrix": []cell.Value{[]cell.Value{int32(1), int32(2)}, nil, []cell.Value{int32(3)}},
		"Next":   uint64(1<<63 + 5),
		"Links":  []cell.Value{uint64(math.MaxUint64), uint64(2)},
		"After":  -0.25,
	}
	return x, v
}

func TestEncodeAccessRoundTrip(t *testing.T) {
	blob := encode(t, "Movie", map[string]cell.Value{
		"Name": "The Matrix", "Year": 1999, "Rating": 8.7, "Actors": []int64{101, 102, 103},
	})
	x := &Movie{Name: "The Matrix", Year: 1999, Rating: 8.7, Actors: []uint64{101, 102, 103}}
	if !bytes.Equal(x.AppendTo(nil), blob) || x.Size() != len(blob) {
		t.Fatalf("AppendTo = %v, cell.Encode = %v", x.AppendTo(nil), blob)
	}
	a, err := NewMovieAccessor(blob)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "The Matrix" || a.Year() != 1999 || a.Rating() != 8.7 {
		t.Fatalf("Name, Year, Rating = %q, %d, %v", a.Name(), a.Year(), a.Rating())
	}
	if l := a.Actors(); l.Len() != 3 || l.At(0) != 101 || l.At(1) != 102 || l.At(2) != 103 {
		t.Fatalf("Actors = %v", l.slice())
	}
	// The list locator names the count that ListAppend bumps.
	off, err := locateMovieActors(blob)
	if err != nil || binary.LittleEndian.Uint32(blob[off:]) != 3 || off+4+3*8 != len(blob) {
		t.Fatalf("locateMovieActors = %d, %v", off, err)
	}
}

func TestAllKindsRoundTrip(t *testing.T) {
	x, v := everything()
	blob := encode(t, "Everything", v)
	if !bytes.Equal(x.AppendTo(nil), blob) || x.Size() != len(blob) {
		t.Fatalf("AppendTo disagrees with cell.Encode:\n%v\n%v", x.AppendTo(nil), blob)
	}
	var y Everything
	if err := y.Unmarshal(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&y, x) {
		t.Fatalf("Unmarshal = %+v, want %+v", y, *x)
	}
	a, err := NewEverythingAccessor(blob)
	if err != nil {
		t.Fatal(err)
	}
	if a.B() != 7 || !a.Flag() || a.I() != -42 || a.L() != 1<<60 || a.F() != 3.5 || a.D() != math.Pi || a.S() != "héllo, 世界" {
		t.Fatal("fixed field or string mismatch")
	}
	if a.P().X() != 1 || a.P().Y() != -2 || a.T().Key() != "k" || a.T().Values().At(1) != -1 {
		t.Fatal("nested struct mismatch")
	}
	if n := a.Names(); n.Len() != 3 || n.At(0) != "a" || n.At(1) != "" || n.At(2) != "ccc" {
		t.Fatal("list of string mismatch")
	}
	if a.Ids().At(0) != -1 || a.Ids().Len() != 3 || !a.Bits().At(2) || a.Bits().At(1) {
		t.Fatal("list of fixed mismatch")
	}
	if a.Points().At(1).Y() != 6 || a.Tags().Len() != 2 || a.Tags().At(1).Key() != "yy" || a.Tags().At(1).Values().At(0) != 2 {
		t.Fatal("list of struct mismatch")
	}
	if m := a.Matrix(); m.Len() != 3 || m.At(1).Len() != 0 || m.At(2).At(0) != 3 || m.At(0).At(1) != 2 {
		t.Fatal("list of list mismatch")
	}
	if a.Next() != 1<<63+5 || a.Links().At(0) != math.MaxUint64 || a.After() != -0.25 {
		t.Fatal("edge fields or trailing fixed field mismatch")
	}
}

func TestZeroValuesForMissingFields(t *testing.T) {
	blob := encode(t, "Everything", map[string]cell.Value{})
	if !bytes.Equal(new(Everything).AppendTo(nil), blob) {
		t.Fatal("zero Everything does not encode like cell.Encode of no fields")
	}
	var y Everything
	if err := y.Unmarshal(blob); err != nil || !reflect.DeepEqual(y, Everything{}) {
		t.Fatalf("Unmarshal = %+v, %v", y, err)
	}
	a, err := NewEverythingAccessor(blob)
	if err != nil {
		t.Fatal(err)
	}
	if a.B() != 0 || a.Flag() || a.S() != "" || a.Ids().Len() != 0 || a.Tags().Len() != 0 || a.After() != 0 {
		t.Fatal("missing fields not zero")
	}
}

func TestInPlaceWrites(t *testing.T) {
	blob := encode(t, "Movie", map[string]cell.Value{
		"Name": "X", "Year": 2000, "Rating": 5.0, "Actors": []int64{1, 2},
	})
	a, err := NewMovieAccessor(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-size fields after a variable field write in place correctly.
	a.setYear(2024)
	a.setRating(9.9)
	a.Actors().set(0, 77)
	if a.Year() != 2024 || a.Rating() != 9.9 || a.Actors().At(0) != 77 || a.Actors().At(1) != 2 {
		t.Fatalf("writes lost: %d %v %d", a.Year(), a.Rating(), a.Actors().At(0))
	}
	// Name must be untouched by the in-place writes.
	if a.Name() != "X" {
		t.Fatal("neighboring field corrupted")
	}

	x, v := everything()
	blob = encode(t, "Everything", v)
	e, err := NewEverythingAccessor(blob)
	if err != nil {
		t.Fatal(err)
	}
	e.setB(3)
	e.setFlag(false)
	e.setNext(9)
	e.setAfter(1.5)
	e.P().setX(-9)
	e.Tags().At(1).Values().set(0, 4)
	e.Ids().set(2, -5)
	x.B, x.Flag, x.Next, x.After, x.P.X, x.Tags[1].Values[0], x.Ids[2] = 3, false, 9, 1.5, -9, 4, -5
	if !bytes.Equal(blob, x.AppendTo(nil)) {
		t.Fatal("in-place writes disagree with re-encoding the changed value")
	}
}

func TestVariableListOfStrings(t *testing.T) {
	blob := encode(t, "Strings", map[string]cell.Value{
		"Ss":    []cell.Value{"aa", "b", "", "dddd"},
		"After": int64(99),
	})
	a, err := NewStringsAccessor(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"aa", "b", "", "dddd"}
	for i, w := range want {
		if got := a.Ss().At(i); got != w {
			t.Fatalf("Ss[%d] = %q, want %q", i, got, w)
		}
	}
	// A field after a variable-length list resolves correctly.
	if a.After() != 99 {
		t.Fatalf("After = %d", a.After())
	}
	var x Strings
	if err := x.Unmarshal(blob); err != nil || !reflect.DeepEqual(x.Ss, want) || x.After != 99 {
		t.Fatalf("Unmarshal = %+v, %v", x, err)
	}
}

func TestShortBlobDetected(t *testing.T) {
	x, _ := everything()
	blob := x.AppendTo(nil)
	// Every prefix fails whole: accessor, decode and list locator.
	for cut := 0; cut < len(blob); cut++ {
		b := blob[:cut]
		if _, err := NewEverythingAccessor(b); !errors.Is(err, cell.ErrShortBlob) {
			t.Fatalf("cut %d: accessor err = %v", cut, err)
		}
		if err := new(Everything).Unmarshal(b); !errors.Is(err, cell.ErrShortBlob) {
			t.Fatalf("cut %d: Unmarshal err = %v", cut, err)
		}
		if _, err := locateEverythingLinks(b); !errors.Is(err, cell.ErrShortBlob) {
			t.Fatalf("cut %d: locate err = %v", cut, err)
		}
	}
	// A count that overruns the blob fails the same way, for the lists
	// behind it too.
	bad := append([]byte(nil), blob...)
	off := (EverythingAccessor{bad}).offNames()
	binary.LittleEndian.PutUint32(bad[off:], math.MaxUint32)
	if _, err := NewEverythingAccessor(bad); !errors.Is(err, cell.ErrShortBlob) {
		t.Fatalf("overrunning count: %v", err)
	}
	if _, err := locateEverythingLinks(bad); !errors.Is(err, cell.ErrShortBlob) {
		t.Fatalf("list behind an overrunning count: %v", err)
	}
	// A trailing byte is a whole accessor but no single value.
	if _, err := NewEverythingAccessor(append(blob, 0)); err != nil {
		t.Fatal(err)
	}
	if err := new(Everything).Unmarshal(append(blob, 0)); err == nil || errors.Is(err, cell.ErrShortBlob) {
		t.Fatalf("trailing byte: %v", err)
	}
}

func TestAccessorZeroCopySharing(t *testing.T) {
	// The accessor must read through to the same memory, not a copy.
	x, _ := everything()
	blob := x.AppendTo(nil)
	a, err := NewEverythingAccessor(blob)
	if err != nil {
		t.Fatal(err)
	}
	names, points := a.Names(), a.Points()
	blob[bytes.Index(blob, []byte("ccc"))] = 'Z'
	binary.LittleEndian.PutUint32(blob[bytes.Index(blob, []byte{5, 0, 0, 0, 6, 0, 0, 0}):], 50)
	blob[bytes.Index(blob, []byte("llo"))] = 'L'
	if names.At(2) != "Zcc" || points.At(1).X() != 50 || a.S() != "héLlo, 世界" {
		t.Fatal("accessor read a copy, not the blob")
	}
}

func TestEncodeDecodePropertyLongs(t *testing.T) {
	// Property: the generated codec and accessor agree with cell.Encode on
	// arbitrary movie cells.
	f := func(seed uint64) bool {
		rng := hash.NewRNG(seed)
		name := make([]byte, rng.Intn(50))
		for i := range name {
			name[i] = byte('a' + rng.Intn(26))
		}
		ids := make([]int64, rng.Intn(100))
		for i := range ids {
			ids[i] = int64(rng.Next())
		}
		in := map[string]cell.Value{"Name": string(name), "Year": int32(rng.Next()), "Rating": rng.Float64() * 10, "Actors": ids}
		blob, err := cell.Encode(fixture.Struct("Movie"), in)
		if err != nil {
			return false
		}
		var m Movie
		if m.Unmarshal(blob) != nil || !bytes.Equal(m.AppendTo(nil), blob) {
			return false
		}
		a, err := NewMovieAccessor(blob)
		if err != nil || a.Name() != in["Name"] || a.Year() != in["Year"] || a.Rating() != in["Rating"] || a.Actors().Len() != len(ids) {
			return false
		}
		for i, id := range ids {
			if a.Actors().At(i) != uint64(id) || m.Actors[i] != uint64(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzAccessor feeds arbitrary bytes to the generated readers: a short or
// overrunning blob is ErrShortBlob from each of them and never a panic,
// and a blob they accept reads back as what its value encodes to.
func FuzzAccessor(f *testing.F) {
	x, _ := everything()
	blob := x.AppendTo(nil)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(new(Everything).AppendTo(nil))
	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[(EverythingAccessor{bad}).offMatrix():], math.MaxUint32)
	f.Add(bad)
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := NewEverythingAccessor(b)
		_, lerr := locateEverythingLinks(b)
		var y Everything
		uerr := y.Unmarshal(b)
		if err != nil {
			if !errors.Is(err, cell.ErrShortBlob) || !errors.Is(lerr, cell.ErrShortBlob) || !errors.Is(uerr, cell.ErrShortBlob) {
				t.Fatalf("accessor %v, locate %v, Unmarshal %v", err, lerr, uerr)
			}
			return
		}
		if lerr != nil {
			t.Fatalf("locate of an accessible blob: %v", lerr)
		}
		var z Everything
		a.get(&z)
		enc := z.AppendTo(nil)
		if len(enc) > len(b) || (uerr == nil) != (len(enc) == len(b)) {
			t.Fatalf("accessor read %d of %d bytes; Unmarshal: %v", len(enc), len(b), uerr)
		}
		var w Everything
		if err := w.Unmarshal(enc); err != nil || !bytes.Equal(w.AppendTo(nil), enc) {
			t.Fatalf("re-encoded value does not read back: %v", err)
		}
	})
}

var sink int32

func BenchmarkAccessorFixedField(b *testing.B) {
	blob := (&Movie{Name: "The Matrix", Year: 1999, Actors: []uint64{1, 2, 3}}).AppendTo(nil)
	a, err := NewMovieAccessor(blob)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sink += a.Year()
	}
}
