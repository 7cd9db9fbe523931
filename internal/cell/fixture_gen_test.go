// Code generated by tslc from a Trinity Specification Language script. DO NOT EDIT.

package cell_test

import (
	"encoding/binary"
	"fmt"
	"math"

	"trinity/internal/cell"
)

// Point is a TSL struct.
type Point struct {
	X int32
	Y int32
}

// Size returns the length of x's blob.
func (x *Point) Size() int {
	return 8
}

// AppendTo appends x's blob to b.
func (x *Point) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(x.X))
	b = binary.LittleEndian.AppendUint32(b, uint32(x.Y))
	return b
}

// Unmarshal decodes a blob that holds exactly one Point.
func (x *Point) Unmarshal(b []byte) error {
	if n := skipPoint(b, 0); n < 0 {
		return cell.ErrShortBlob
	} else if n != len(b) {
		return fmt.Errorf("Point: %d trailing bytes", len(b)-n)
	}
	PointAccessor{b}.get(x)
	return nil
}

// skipPoint returns the offset just past the Point at b[o:], or -1 if
// b ends first.
func skipPoint(b []byte, o int) int {
	if o += 8; o > len(b) {
		return -1
	}
	return o
}

// PointAccessor maps the fields of a Point blob to their offsets: reads
// go to the blob in place, with no decode and no copy of lists.
type PointAccessor struct{ b []byte }

// NewPointAccessor checks that b starts with a whole Point and maps it.
func NewPointAccessor(b []byte) (PointAccessor, error) {
	if skipPoint(b, 0) < 0 {
		return PointAccessor{}, cell.ErrShortBlob
	}
	return PointAccessor{b}, nil
}

func (a PointAccessor) get(x *Point) {
	x.X = a.X()
	x.Y = a.Y()
}

// X reads the X field.
func (a PointAccessor) X() int32 {
	return int32(binary.LittleEndian.Uint32(a.b[0:]))
}

func (a PointAccessor) setX(v int32) {
	binary.LittleEndian.PutUint32(a.b[0:], uint32(v))
}

// Y reads the Y field.
func (a PointAccessor) Y() int32 {
	return int32(binary.LittleEndian.Uint32(a.b[4:]))
}

func (a PointAccessor) setY(v int32) {
	binary.LittleEndian.PutUint32(a.b[4:], uint32(v))
}

// Tag is a TSL struct.
type Tag struct {
	Key    string
	Values []float64
}

// Size returns the length of x's blob.
func (x *Tag) Size() int {
	return 8 + len(x.Key) + 8*len(x.Values)
}

// AppendTo appends x's blob to b.
func (x *Tag) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Key)))
	b = append(b, x.Key...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Values)))
	for _, e1 := range x.Values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e1))
	}
	return b
}

// Unmarshal decodes a blob that holds exactly one Tag.
func (x *Tag) Unmarshal(b []byte) error {
	if n := skipTag(b, 0); n < 0 {
		return cell.ErrShortBlob
	} else if n != len(b) {
		return fmt.Errorf("Tag: %d trailing bytes", len(b)-n)
	}
	TagAccessor{b}.get(x)
	return nil
}

// skipTag returns the offset just past the Tag at b[o:], or -1 if
// b ends first.
func skipTag(b []byte, o int) int {
	if o = cell.SkipList(b, o, 1); o < 0 {
		return -1
	}
	return cell.SkipList(b, o, 8)
}

// TagAccessor maps the fields of a Tag blob to their offsets: reads
// go to the blob in place, with no decode and no copy of lists.
type TagAccessor struct{ b []byte }

// NewTagAccessor checks that b starts with a whole Tag and maps it.
func NewTagAccessor(b []byte) (TagAccessor, error) {
	if skipTag(b, 0) < 0 {
		return TagAccessor{}, cell.ErrShortBlob
	}
	return TagAccessor{b}, nil
}

func (a TagAccessor) offValues() int {
	return 4 + int(binary.LittleEndian.Uint32(a.b[0:]))
}

func (a TagAccessor) get(x *Tag) {
	x.Key = a.Key()
	x.Values = a.Values().slice()
}

// Key reads the Key field (a copy: Go strings are immutable).
func (a TagAccessor) Key() string {
	return string(a.b[4 : 4+int(binary.LittleEndian.Uint32(a.b[0:]))])
}

// Values maps the Values field in place.
func (a TagAccessor) Values() Float64List {
	o := a.offValues()
	return readFloat64List(a.b, o)
}

// locateTagValues returns the offset of the Values count in a whole Tag
// blob, for Slave.ListAppend.
func locateTagValues(b []byte) (int, error) {
	if skipTag(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return TagAccessor{b}.offValues(), nil
}

// Everything is a TSL cell struct: instances are stored as cells in the
// memory cloud.
type Everything struct {
	B      byte
	Flag   bool
	I      int32
	L      int64
	F      float32
	D      float64
	S      string
	P      Point
	T      Tag
	Names  []string
	Ids    []int64
	Bits   []bool
	Points []Point
	Tags   []Tag
	Matrix [][]int32
	Next   uint64
	Links  []uint64
	After  float64
}

// Size returns the length of x's blob.
func (x *Everything) Size() int {
	n := 82 + len(x.S) + x.T.Size() + 8*len(x.Ids) + len(x.Bits) + 8*len(x.Points) + 8*len(x.Links)
	for _, e1 := range x.Names {
		n += 4 + len(e1)
	}
	for _, e1 := range x.Tags {
		n += e1.Size()
	}
	for _, e1 := range x.Matrix {
		n += 4 + 4*len(e1)
	}
	return n
}

// AppendTo appends x's blob to b.
func (x *Everything) AppendTo(b []byte) []byte {
	b = append(b, x.B)
	if x.Flag {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(x.I))
	b = binary.LittleEndian.AppendUint64(b, uint64(x.L))
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x.F))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x.D))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.S)))
	b = append(b, x.S...)
	b = x.P.AppendTo(b)
	b = x.T.AppendTo(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Names)))
	for _, e1 := range x.Names {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e1)))
		b = append(b, e1...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Ids)))
	for _, e1 := range x.Ids {
		b = binary.LittleEndian.AppendUint64(b, uint64(e1))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Bits)))
	for _, e1 := range x.Bits {
		if e1 {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Points)))
	for i1 := range x.Points {
		b = x.Points[i1].AppendTo(b)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Tags)))
	for i1 := range x.Tags {
		b = x.Tags[i1].AppendTo(b)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Matrix)))
	for _, e1 := range x.Matrix {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e1)))
		for _, e2 := range e1 {
			b = binary.LittleEndian.AppendUint32(b, uint32(e2))
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(x.Next))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Links)))
	for _, e1 := range x.Links {
		b = binary.LittleEndian.AppendUint64(b, uint64(e1))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x.After))
	return b
}

// Unmarshal decodes a blob that holds exactly one Everything.
func (x *Everything) Unmarshal(b []byte) error {
	if n := skipEverything(b, 0); n < 0 {
		return cell.ErrShortBlob
	} else if n != len(b) {
		return fmt.Errorf("Everything: %d trailing bytes", len(b)-n)
	}
	EverythingAccessor{b}.get(x)
	return nil
}

// skipEverything returns the offset just past the Everything at b[o:], or -1 if
// b ends first.
func skipEverything(b []byte, o int) int {
	if o = cell.SkipList(b, o+26, 1); o < 0 {
		return -1
	}
	if o = skipTag(b, o+8); o < 0 {
		return -1
	}
	if o = skipStringList(b, o); o < 0 {
		return -1
	}
	if o = cell.SkipList(b, o, 8); o < 0 {
		return -1
	}
	if o = cell.SkipList(b, o, 1); o < 0 {
		return -1
	}
	if o = cell.SkipList(b, o, 8); o < 0 {
		return -1
	}
	if o = skipTagList(b, o); o < 0 {
		return -1
	}
	if o = skipInt32ListList(b, o); o < 0 {
		return -1
	}
	if o = cell.SkipList(b, o+8, 8); o < 0 {
		return -1
	}
	if o += 8; o > len(b) {
		return -1
	}
	return o
}

// EverythingAccessor maps the fields of a Everything blob to their offsets: reads
// go to the blob in place, with no decode and no copy of lists.
type EverythingAccessor struct{ b []byte }

// NewEverythingAccessor checks that b starts with a whole Everything and maps it.
func NewEverythingAccessor(b []byte) (EverythingAccessor, error) {
	if skipEverything(b, 0) < 0 {
		return EverythingAccessor{}, cell.ErrShortBlob
	}
	return EverythingAccessor{b}, nil
}

func (a EverythingAccessor) offP() int {
	return 30 + int(binary.LittleEndian.Uint32(a.b[26:]))
}

func (a EverythingAccessor) offNames() int {
	o := a.offP() + 8
	return skipTag(a.b, o)
}

func (a EverythingAccessor) offIds() int {
	o := a.offNames()
	return skipStringList(a.b, o)
}

func (a EverythingAccessor) offBits() int {
	o := a.offIds()
	return o + 4 + 8*int(binary.LittleEndian.Uint32(a.b[o:]))
}

func (a EverythingAccessor) offPoints() int {
	o := a.offBits()
	return o + 4 + int(binary.LittleEndian.Uint32(a.b[o:]))
}

func (a EverythingAccessor) offTags() int {
	o := a.offPoints()
	return o + 4 + 8*int(binary.LittleEndian.Uint32(a.b[o:]))
}

func (a EverythingAccessor) offMatrix() int {
	o := a.offTags()
	return skipTagList(a.b, o)
}

func (a EverythingAccessor) offNext() int {
	o := a.offMatrix()
	return skipInt32ListList(a.b, o)
}

func (a EverythingAccessor) offAfter() int {
	o := a.offNext() + 8
	return o + 4 + 8*int(binary.LittleEndian.Uint32(a.b[o:]))
}

func (a EverythingAccessor) get(x *Everything) {
	x.B = a.B()
	x.Flag = a.Flag()
	x.I = a.I()
	x.L = a.L()
	x.F = a.F()
	x.D = a.D()
	x.S = a.S()
	a.P().get(&x.P)
	a.T().get(&x.T)
	x.Names = a.Names().slice()
	x.Ids = a.Ids().slice()
	x.Bits = a.Bits().slice()
	x.Points = a.Points().slice()
	x.Tags = a.Tags().slice()
	x.Matrix = a.Matrix().slice()
	x.Next = a.Next()
	x.Links = a.Links().slice()
	x.After = a.After()
}

// B reads the B field.
func (a EverythingAccessor) B() byte {
	return a.b[0]
}

func (a EverythingAccessor) setB(v byte) {
	a.b[0] = v
}

// Flag reads the Flag field.
func (a EverythingAccessor) Flag() bool {
	return a.b[1] != 0
}

func (a EverythingAccessor) setFlag(v bool) {
	a.b[1] = 0
	if v {
		a.b[1] = 1
	}
}

// I reads the I field.
func (a EverythingAccessor) I() int32 {
	return int32(binary.LittleEndian.Uint32(a.b[2:]))
}

func (a EverythingAccessor) setI(v int32) {
	binary.LittleEndian.PutUint32(a.b[2:], uint32(v))
}

// L reads the L field.
func (a EverythingAccessor) L() int64 {
	return int64(binary.LittleEndian.Uint64(a.b[6:]))
}

func (a EverythingAccessor) setL(v int64) {
	binary.LittleEndian.PutUint64(a.b[6:], uint64(v))
}

// F reads the F field.
func (a EverythingAccessor) F() float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(a.b[14:]))
}

func (a EverythingAccessor) setF(v float32) {
	binary.LittleEndian.PutUint32(a.b[14:], math.Float32bits(v))
}

// D reads the D field.
func (a EverythingAccessor) D() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(a.b[18:]))
}

func (a EverythingAccessor) setD(v float64) {
	binary.LittleEndian.PutUint64(a.b[18:], math.Float64bits(v))
}

// S reads the S field (a copy: Go strings are immutable).
func (a EverythingAccessor) S() string {
	return string(a.b[30 : 30+int(binary.LittleEndian.Uint32(a.b[26:]))])
}

// P maps the P field in place.
func (a EverythingAccessor) P() PointAccessor {
	o := a.offP()
	return PointAccessor{a.b[o:]}
}

// T maps the T field in place.
func (a EverythingAccessor) T() TagAccessor {
	o := a.offP() + 8
	return TagAccessor{a.b[o:]}
}

// Names maps the Names field in place.
func (a EverythingAccessor) Names() StringList {
	o := a.offNames()
	return readStringList(a.b, o)
}

// locateEverythingNames returns the offset of the Names count in a whole Everything
// blob, for Slave.ListAppend.
func locateEverythingNames(b []byte) (int, error) {
	if skipEverything(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return EverythingAccessor{b}.offNames(), nil
}

// Ids maps the Ids field in place.
func (a EverythingAccessor) Ids() Int64List {
	o := a.offIds()
	return readInt64List(a.b, o)
}

// locateEverythingIds returns the offset of the Ids count in a whole Everything
// blob, for Slave.ListAppend.
func locateEverythingIds(b []byte) (int, error) {
	if skipEverything(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return EverythingAccessor{b}.offIds(), nil
}

// Bits maps the Bits field in place.
func (a EverythingAccessor) Bits() BoolList {
	o := a.offBits()
	return readBoolList(a.b, o)
}

// locateEverythingBits returns the offset of the Bits count in a whole Everything
// blob, for Slave.ListAppend.
func locateEverythingBits(b []byte) (int, error) {
	if skipEverything(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return EverythingAccessor{b}.offBits(), nil
}

// Points maps the Points field in place.
func (a EverythingAccessor) Points() PointList {
	o := a.offPoints()
	return readPointList(a.b, o)
}

// locateEverythingPoints returns the offset of the Points count in a whole Everything
// blob, for Slave.ListAppend.
func locateEverythingPoints(b []byte) (int, error) {
	if skipEverything(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return EverythingAccessor{b}.offPoints(), nil
}

// Tags maps the Tags field in place.
func (a EverythingAccessor) Tags() TagList {
	o := a.offTags()
	return readTagList(a.b, o)
}

// locateEverythingTags returns the offset of the Tags count in a whole Everything
// blob, for Slave.ListAppend.
func locateEverythingTags(b []byte) (int, error) {
	if skipEverything(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return EverythingAccessor{b}.offTags(), nil
}

// Matrix maps the Matrix field in place.
func (a EverythingAccessor) Matrix() Int32ListList {
	o := a.offMatrix()
	return readInt32ListList(a.b, o)
}

// locateEverythingMatrix returns the offset of the Matrix count in a whole Everything
// blob, for Slave.ListAppend.
func locateEverythingMatrix(b []byte) (int, error) {
	if skipEverything(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return EverythingAccessor{b}.offMatrix(), nil
}

// Next reads the Next field.
func (a EverythingAccessor) Next() uint64 {
	o := a.offNext()
	return binary.LittleEndian.Uint64(a.b[o:])
}

func (a EverythingAccessor) setNext(v uint64) {
	o := a.offNext()
	binary.LittleEndian.PutUint64(a.b[o:], uint64(v))
}

// Links maps the Links field in place.
func (a EverythingAccessor) Links() Uint64List {
	o := a.offNext() + 8
	return readUint64List(a.b, o)
}

// locateEverythingLinks returns the offset of the Links count in a whole Everything
// blob, for Slave.ListAppend.
func locateEverythingLinks(b []byte) (int, error) {
	if skipEverything(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return EverythingAccessor{b}.offNext() + 8, nil
}

// After reads the After field.
func (a EverythingAccessor) After() float64 {
	o := a.offAfter()
	return math.Float64frombits(binary.LittleEndian.Uint64(a.b[o:]))
}

func (a EverythingAccessor) setAfter(v float64) {
	o := a.offAfter()
	binary.LittleEndian.PutUint64(a.b[o:], math.Float64bits(v))
}

// Movie is a TSL cell struct: instances are stored as cells in the
// memory cloud.
type Movie struct {
	Name   string
	Year   int32
	Rating float64
	Actors []uint64
}

// Size returns the length of x's blob.
func (x *Movie) Size() int {
	return 20 + len(x.Name) + 8*len(x.Actors)
}

// AppendTo appends x's blob to b.
func (x *Movie) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Name)))
	b = append(b, x.Name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(x.Year))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x.Rating))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Actors)))
	for _, e1 := range x.Actors {
		b = binary.LittleEndian.AppendUint64(b, uint64(e1))
	}
	return b
}

// Unmarshal decodes a blob that holds exactly one Movie.
func (x *Movie) Unmarshal(b []byte) error {
	if n := skipMovie(b, 0); n < 0 {
		return cell.ErrShortBlob
	} else if n != len(b) {
		return fmt.Errorf("Movie: %d trailing bytes", len(b)-n)
	}
	MovieAccessor{b}.get(x)
	return nil
}

// skipMovie returns the offset just past the Movie at b[o:], or -1 if
// b ends first.
func skipMovie(b []byte, o int) int {
	if o = cell.SkipList(b, o, 1); o < 0 {
		return -1
	}
	return cell.SkipList(b, o+12, 8)
}

// MovieAccessor maps the fields of a Movie blob to their offsets: reads
// go to the blob in place, with no decode and no copy of lists.
type MovieAccessor struct{ b []byte }

// NewMovieAccessor checks that b starts with a whole Movie and maps it.
func NewMovieAccessor(b []byte) (MovieAccessor, error) {
	if skipMovie(b, 0) < 0 {
		return MovieAccessor{}, cell.ErrShortBlob
	}
	return MovieAccessor{b}, nil
}

func (a MovieAccessor) offYear() int {
	return 4 + int(binary.LittleEndian.Uint32(a.b[0:]))
}

func (a MovieAccessor) get(x *Movie) {
	x.Name = a.Name()
	x.Year = a.Year()
	x.Rating = a.Rating()
	x.Actors = a.Actors().slice()
}

// Name reads the Name field (a copy: Go strings are immutable).
func (a MovieAccessor) Name() string {
	return string(a.b[4 : 4+int(binary.LittleEndian.Uint32(a.b[0:]))])
}

// Year reads the Year field.
func (a MovieAccessor) Year() int32 {
	o := a.offYear()
	return int32(binary.LittleEndian.Uint32(a.b[o:]))
}

func (a MovieAccessor) setYear(v int32) {
	o := a.offYear()
	binary.LittleEndian.PutUint32(a.b[o:], uint32(v))
}

// Rating reads the Rating field.
func (a MovieAccessor) Rating() float64 {
	o := a.offYear() + 4
	return math.Float64frombits(binary.LittleEndian.Uint64(a.b[o:]))
}

func (a MovieAccessor) setRating(v float64) {
	o := a.offYear() + 4
	binary.LittleEndian.PutUint64(a.b[o:], math.Float64bits(v))
}

// Actors maps the Actors field in place.
func (a MovieAccessor) Actors() Uint64List {
	o := a.offYear() + 12
	return readUint64List(a.b, o)
}

// locateMovieActors returns the offset of the Actors count in a whole Movie
// blob, for Slave.ListAppend.
func locateMovieActors(b []byte) (int, error) {
	if skipMovie(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return MovieAccessor{b}.offYear() + 12, nil
}

// Strings is a TSL struct.
type Strings struct {
	Ss    []string
	After int64
}

// Size returns the length of x's blob.
func (x *Strings) Size() int {
	n := 12
	for _, e1 := range x.Ss {
		n += 4 + len(e1)
	}
	return n
}

// AppendTo appends x's blob to b.
func (x *Strings) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Ss)))
	for _, e1 := range x.Ss {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e1)))
		b = append(b, e1...)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(x.After))
	return b
}

// Unmarshal decodes a blob that holds exactly one Strings.
func (x *Strings) Unmarshal(b []byte) error {
	if n := skipStrings(b, 0); n < 0 {
		return cell.ErrShortBlob
	} else if n != len(b) {
		return fmt.Errorf("Strings: %d trailing bytes", len(b)-n)
	}
	StringsAccessor{b}.get(x)
	return nil
}

// skipStrings returns the offset just past the Strings at b[o:], or -1 if
// b ends first.
func skipStrings(b []byte, o int) int {
	if o = skipStringList(b, o); o < 0 {
		return -1
	}
	if o += 8; o > len(b) {
		return -1
	}
	return o
}

// StringsAccessor maps the fields of a Strings blob to their offsets: reads
// go to the blob in place, with no decode and no copy of lists.
type StringsAccessor struct{ b []byte }

// NewStringsAccessor checks that b starts with a whole Strings and maps it.
func NewStringsAccessor(b []byte) (StringsAccessor, error) {
	if skipStrings(b, 0) < 0 {
		return StringsAccessor{}, cell.ErrShortBlob
	}
	return StringsAccessor{b}, nil
}

func (a StringsAccessor) offAfter() int {
	return skipStringList(a.b, 0)
}

func (a StringsAccessor) get(x *Strings) {
	x.Ss = a.Ss().slice()
	x.After = a.After()
}

// Ss maps the Ss field in place.
func (a StringsAccessor) Ss() StringList {
	return readStringList(a.b, 0)
}

// locateStringsSs returns the offset of the Ss count in a whole Strings
// blob, for Slave.ListAppend.
func locateStringsSs(b []byte) (int, error) {
	if skipStrings(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return 0, nil
}

// After reads the After field.
func (a StringsAccessor) After() int64 {
	o := a.offAfter()
	return int64(binary.LittleEndian.Uint64(a.b[o:]))
}

func (a StringsAccessor) setAfter(v int64) {
	o := a.offAfter()
	binary.LittleEndian.PutUint64(a.b[o:], uint64(v))
}

// Float64List reads a List<double> in place.
type Float64List struct {
	b []byte
	n int
}

func readFloat64List(b []byte, o int) Float64List {
	n := int(binary.LittleEndian.Uint32(b[o:]))
	return Float64List{b[o+4 : o+4+8*n], n}
}

// Len returns the number of elements.
func (l Float64List) Len() int { return l.n }

// At returns element i.
func (l Float64List) At(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(l.b[8*i:]))
}

func (l Float64List) set(i int, v float64) {
	binary.LittleEndian.PutUint64(l.b[8*i:], math.Float64bits(v))
}

func (l Float64List) slice() []float64 {
	if l.n == 0 {
		return nil
	}
	s := make([]float64, l.n)
	for i := range s {
		s[i] = math.Float64frombits(binary.LittleEndian.Uint64(l.b[8*i:]))
	}
	return s
}

// StringList reads a List<string> in place.
type StringList struct {
	b []byte
	n int
}

func readStringList(b []byte, o int) StringList {
	return StringList{b[o+4:], int(binary.LittleEndian.Uint32(b[o:]))}
}

// Len returns the number of elements.
func (l StringList) Len() int { return l.n }

// At returns element i.
func (l StringList) At(i int) string {
	o := 0
	for ; i > 0; i-- {
		o = o + 4 + int(binary.LittleEndian.Uint32(l.b[o:]))
	}
	return string(l.b[o+4 : o+4+int(binary.LittleEndian.Uint32(l.b[o:]))])
}

func (l StringList) slice() []string {
	if l.n == 0 {
		return nil
	}
	s := make([]string, l.n)
	o := 0
	for i := range s {
		s[i] = string(l.b[o+4 : o+4+int(binary.LittleEndian.Uint32(l.b[o:]))])
		o = o + 4 + int(binary.LittleEndian.Uint32(l.b[o:]))
	}
	return s
}

func skipStringList(b []byte, o int) int {
	if o += 4; o > len(b) {
		return -1
	}
	for n := binary.LittleEndian.Uint32(b[o-4:]); n > 0; n-- {
		if o = cell.SkipList(b, o, 1); o < 0 {
			return -1
		}
	}
	return o
}

// Int64List reads a List<long> in place.
type Int64List struct {
	b []byte
	n int
}

func readInt64List(b []byte, o int) Int64List {
	n := int(binary.LittleEndian.Uint32(b[o:]))
	return Int64List{b[o+4 : o+4+8*n], n}
}

// Len returns the number of elements.
func (l Int64List) Len() int { return l.n }

// At returns element i.
func (l Int64List) At(i int) int64 {
	return int64(binary.LittleEndian.Uint64(l.b[8*i:]))
}

func (l Int64List) set(i int, v int64) {
	binary.LittleEndian.PutUint64(l.b[8*i:], uint64(v))
}

func (l Int64List) slice() []int64 {
	if l.n == 0 {
		return nil
	}
	s := make([]int64, l.n)
	for i := range s {
		s[i] = int64(binary.LittleEndian.Uint64(l.b[8*i:]))
	}
	return s
}

// BoolList reads a List<bool> in place.
type BoolList struct {
	b []byte
	n int
}

func readBoolList(b []byte, o int) BoolList {
	n := int(binary.LittleEndian.Uint32(b[o:]))
	return BoolList{b[o+4 : o+4+n], n}
}

// Len returns the number of elements.
func (l BoolList) Len() int { return l.n }

// At returns element i.
func (l BoolList) At(i int) bool {
	return l.b[i] != 0
}

func (l BoolList) set(i int, v bool) {
	l.b[i] = 0
	if v {
		l.b[i] = 1
	}
}

func (l BoolList) slice() []bool {
	if l.n == 0 {
		return nil
	}
	s := make([]bool, l.n)
	for i := range s {
		s[i] = l.b[i] != 0
	}
	return s
}

// PointList reads a List<Point> in place.
type PointList struct {
	b []byte
	n int
}

func readPointList(b []byte, o int) PointList {
	n := int(binary.LittleEndian.Uint32(b[o:]))
	return PointList{b[o+4 : o+4+8*n], n}
}

// Len returns the number of elements.
func (l PointList) Len() int { return l.n }

// At returns element i.
func (l PointList) At(i int) PointAccessor {
	return PointAccessor{l.b[8*i:]}
}

func (l PointList) slice() []Point {
	if l.n == 0 {
		return nil
	}
	s := make([]Point, l.n)
	for i := range s {
		PointAccessor{l.b[8*i:]}.get(&s[i])
	}
	return s
}

// TagList reads a List<Tag> in place.
type TagList struct {
	b []byte
	n int
}

func readTagList(b []byte, o int) TagList {
	return TagList{b[o+4:], int(binary.LittleEndian.Uint32(b[o:]))}
}

// Len returns the number of elements.
func (l TagList) Len() int { return l.n }

// At returns element i.
func (l TagList) At(i int) TagAccessor {
	o := 0
	for ; i > 0; i-- {
		o = skipTag(l.b, o)
	}
	return TagAccessor{l.b[o:]}
}

func (l TagList) slice() []Tag {
	if l.n == 0 {
		return nil
	}
	s := make([]Tag, l.n)
	o := 0
	for i := range s {
		TagAccessor{l.b[o:]}.get(&s[i])
		o = skipTag(l.b, o)
	}
	return s
}

func skipTagList(b []byte, o int) int {
	if o += 4; o > len(b) {
		return -1
	}
	for n := binary.LittleEndian.Uint32(b[o-4:]); n > 0; n-- {
		if o = skipTag(b, o); o < 0 {
			return -1
		}
	}
	return o
}

// Int32ListList reads a List<List<int>> in place.
type Int32ListList struct {
	b []byte
	n int
}

func readInt32ListList(b []byte, o int) Int32ListList {
	return Int32ListList{b[o+4:], int(binary.LittleEndian.Uint32(b[o:]))}
}

// Len returns the number of elements.
func (l Int32ListList) Len() int { return l.n }

// At returns element i.
func (l Int32ListList) At(i int) Int32List {
	o := 0
	for ; i > 0; i-- {
		o = o + 4 + 4*int(binary.LittleEndian.Uint32(l.b[o:]))
	}
	return readInt32List(l.b, o)
}

func (l Int32ListList) slice() [][]int32 {
	if l.n == 0 {
		return nil
	}
	s := make([][]int32, l.n)
	o := 0
	for i := range s {
		s[i] = readInt32List(l.b, o).slice()
		o = o + 4 + 4*int(binary.LittleEndian.Uint32(l.b[o:]))
	}
	return s
}

func skipInt32ListList(b []byte, o int) int {
	if o += 4; o > len(b) {
		return -1
	}
	for n := binary.LittleEndian.Uint32(b[o-4:]); n > 0; n-- {
		if o = cell.SkipList(b, o, 4); o < 0 {
			return -1
		}
	}
	return o
}

// Int32List reads a List<int> in place.
type Int32List struct {
	b []byte
	n int
}

func readInt32List(b []byte, o int) Int32List {
	n := int(binary.LittleEndian.Uint32(b[o:]))
	return Int32List{b[o+4 : o+4+4*n], n}
}

// Len returns the number of elements.
func (l Int32List) Len() int { return l.n }

// At returns element i.
func (l Int32List) At(i int) int32 {
	return int32(binary.LittleEndian.Uint32(l.b[4*i:]))
}

func (l Int32List) set(i int, v int32) {
	binary.LittleEndian.PutUint32(l.b[4*i:], uint32(v))
}

func (l Int32List) slice() []int32 {
	if l.n == 0 {
		return nil
	}
	s := make([]int32, l.n)
	for i := range s {
		s[i] = int32(binary.LittleEndian.Uint32(l.b[4*i:]))
	}
	return s
}

// Uint64List reads a List<long> in place.
type Uint64List struct {
	b []byte
	n int
}

func readUint64List(b []byte, o int) Uint64List {
	n := int(binary.LittleEndian.Uint32(b[o:]))
	return Uint64List{b[o+4 : o+4+8*n], n}
}

// Len returns the number of elements.
func (l Uint64List) Len() int { return l.n }

// At returns element i.
func (l Uint64List) At(i int) uint64 {
	return binary.LittleEndian.Uint64(l.b[8*i:])
}

func (l Uint64List) set(i int, v uint64) {
	binary.LittleEndian.PutUint64(l.b[8*i:], uint64(v))
}

func (l Uint64List) slice() []uint64 {
	if l.n == 0 {
		return nil
	}
	s := make([]uint64, l.n)
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(l.b[8*i:])
	}
	return s
}
