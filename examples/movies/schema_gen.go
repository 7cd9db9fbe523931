// Code generated by tslc from a Trinity Specification Language script. DO NOT EDIT.

package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"trinity/internal/cell"
	"trinity/internal/msg"
)

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

// Actor is a TSL cell struct: instances are stored as cells in the
// memory cloud.
type Actor struct {
	Name   string
	Movies []uint64
}

// Size returns the length of x's blob.
func (x *Actor) Size() int {
	return 8 + len(x.Name) + 8*len(x.Movies)
}

// AppendTo appends x's blob to b.
func (x *Actor) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Name)))
	b = append(b, x.Name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Movies)))
	for _, e1 := range x.Movies {
		b = binary.LittleEndian.AppendUint64(b, uint64(e1))
	}
	return b
}

// Unmarshal decodes a blob that holds exactly one Actor.
func (x *Actor) Unmarshal(b []byte) error {
	if n := skipActor(b, 0); n < 0 {
		return cell.ErrShortBlob
	} else if n != len(b) {
		return fmt.Errorf("Actor: %d trailing bytes", len(b)-n)
	}
	ActorAccessor{b}.get(x)
	return nil
}

// skipActor returns the offset just past the Actor at b[o:], or -1 if
// b ends first.
func skipActor(b []byte, o int) int {
	if o = cell.SkipList(b, o, 1); o < 0 {
		return -1
	}
	return cell.SkipList(b, o, 8)
}

// ActorAccessor maps the fields of a Actor blob to their offsets: reads
// go to the blob in place, with no decode and no copy of lists.
type ActorAccessor struct{ b []byte }

// NewActorAccessor checks that b starts with a whole Actor and maps it.
func NewActorAccessor(b []byte) (ActorAccessor, error) {
	if skipActor(b, 0) < 0 {
		return ActorAccessor{}, cell.ErrShortBlob
	}
	return ActorAccessor{b}, nil
}

func (a ActorAccessor) offMovies() int {
	return 4 + int(binary.LittleEndian.Uint32(a.b[0:]))
}

func (a ActorAccessor) get(x *Actor) {
	x.Name = a.Name()
	x.Movies = a.Movies().slice()
}

// Name reads the Name field (a copy: Go strings are immutable).
func (a ActorAccessor) Name() string {
	return string(a.b[4 : 4+int(binary.LittleEndian.Uint32(a.b[0:]))])
}

// Movies maps the Movies field in place.
func (a ActorAccessor) Movies() Uint64List {
	o := a.offMovies()
	return readUint64List(a.b, o)
}

// locateActorMovies returns the offset of the Movies count in a whole Actor
// blob, for Slave.ListAppend.
func locateActorMovies(b []byte) (int, error) {
	if skipActor(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return ActorAccessor{b}.offMovies(), nil
}

// MyMessage is a TSL struct.
type MyMessage struct {
	Text string
}

// Size returns the length of x's blob.
func (x *MyMessage) Size() int {
	return 4 + len(x.Text)
}

// AppendTo appends x's blob to b.
func (x *MyMessage) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Text)))
	b = append(b, x.Text...)
	return b
}

// Unmarshal decodes a blob that holds exactly one MyMessage.
func (x *MyMessage) Unmarshal(b []byte) error {
	if n := skipMyMessage(b, 0); n < 0 {
		return cell.ErrShortBlob
	} else if n != len(b) {
		return fmt.Errorf("MyMessage: %d trailing bytes", len(b)-n)
	}
	MyMessageAccessor{b}.get(x)
	return nil
}

// skipMyMessage returns the offset just past the MyMessage at b[o:], or -1 if
// b ends first.
func skipMyMessage(b []byte, o int) int {
	return cell.SkipList(b, o, 1)
}

// MyMessageAccessor maps the fields of a MyMessage blob to their offsets: reads
// go to the blob in place, with no decode and no copy of lists.
type MyMessageAccessor struct{ b []byte }

// NewMyMessageAccessor checks that b starts with a whole MyMessage and maps it.
func NewMyMessageAccessor(b []byte) (MyMessageAccessor, error) {
	if skipMyMessage(b, 0) < 0 {
		return MyMessageAccessor{}, cell.ErrShortBlob
	}
	return MyMessageAccessor{b}, nil
}

func (a MyMessageAccessor) get(x *MyMessage) {
	x.Text = a.Text()
}

// Text reads the Text field (a copy: Go strings are immutable).
func (a MyMessageAccessor) Text() string {
	return string(a.b[4 : 4+int(binary.LittleEndian.Uint32(a.b[0:]))])
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

// EchoID is the wire identifier of the Echo protocol.
const EchoID msg.ProtocolID = 0x1000

// CallEcho invokes the synchronous Echo protocol on machine `to`.
func CallEcho(ctx context.Context, n *msg.Node, to msg.MachineID, req *MyMessage) (*MyMessage, error) {
	payload, err := n.Call(ctx, to, EchoID, req.AppendTo(nil))
	if err != nil {
		return nil, err
	}
	resp := new(MyMessage)
	if err := resp.Unmarshal(payload); err != nil {
		return nil, err
	}
	return resp, nil
}

// RegisterEcho installs the Echo handler; implement the algorithm logic
// as if it were a local method.
func RegisterEcho(n *msg.Node, h func(context.Context, msg.MachineID, *MyMessage) (*MyMessage, error)) {
	n.HandleSync(EchoID, func(ctx context.Context, from msg.MachineID, b []byte) ([]byte, error) {
		req := new(MyMessage)
		if err := req.Unmarshal(b); err != nil {
			return nil, err
		}
		resp, err := h(ctx, from, req)
		if err != nil {
			return nil, err
		}
		return resp.AppendTo(nil), nil
	})
}
