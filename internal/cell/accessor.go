package cell

import (
	"encoding/binary"
	"fmt"
	"math"
)

// skipValue returns the encoded size of the value of type t starting at
// buf[off:]. It returns an error if the blob is truncated.
func skipValue(t *Type, buf []byte, off int) (int, error) {
	if n, ok := t.FixedSize(); ok {
		if off+n > len(buf) {
			return 0, ErrShortBlob
		}
		return n, nil
	}
	switch t.Kind {
	case KindString:
		if off+4 > len(buf) {
			return 0, ErrShortBlob
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		if off+4+n > len(buf) {
			return 0, ErrShortBlob
		}
		return 4 + n, nil
	case KindList:
		if off+4 > len(buf) {
			return 0, ErrShortBlob
		}
		count := int(binary.LittleEndian.Uint32(buf[off:]))
		total := 4
		if esz, ok := t.Elem.FixedSize(); ok {
			total += count * esz
			if off+total > len(buf) {
				return 0, ErrShortBlob
			}
			return total, nil
		}
		for i := 0; i < count; i++ {
			n, err := skipValue(t.Elem, buf, off+total)
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	case KindStruct:
		total := 0
		for i := range t.Struct.Fields {
			n, err := skipValue(t.Struct.Fields[i].Type, buf, off+total)
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	default:
		return 0, fmt.Errorf("cell: cannot skip kind %v", t.Kind)
	}
}

// Accessor maps a struct schema onto a blob. The zero value is invalid;
// use NewAccessor. Accessors are cheap to create (no parsing up front):
// field offsets are resolved lazily, walking only the fields preceding the
// requested one. An accessor does not own the blob; when used inside
// trunk.View, reads and in-place writes are zero-copy into the memory
// cloud, under the cell's lock.
type Accessor struct {
	st  *StructType
	buf []byte
}

// NewAccessor wraps a blob with a schema.
func NewAccessor(st *StructType, buf []byte) Accessor {
	return Accessor{st: st, buf: buf}
}

// fieldOffset resolves the byte offset of field i by skipping fields 0..i-1.
func (a Accessor) fieldOffset(i int) (int, error) {
	off := 0
	for j := 0; j < i; j++ {
		n, err := skipValue(a.st.Fields[j].Type, a.buf, off)
		if err != nil {
			return 0, err
		}
		off += n
	}
	return off, nil
}

// Field returns a reference to the named field.
func (a Accessor) Field(name string) (Ref, error) {
	i := a.st.FieldIndex(name)
	if i < 0 {
		return Ref{}, fmt.Errorf("%w: %s.%s", ErrNoField, a.st.Name, name)
	}
	off, err := a.fieldOffset(i)
	if err != nil {
		return Ref{}, err
	}
	return Ref{typ: a.st.Fields[i].Type, buf: a.buf, off: off}, nil
}

// MustField is Field that panics on error; for schema-static code paths
// (generated accessors validate the blob once at load).
func (a Accessor) MustField(name string) Ref {
	r, err := a.Field(name)
	if err != nil {
		panic(err)
	}
	return r
}

// Size returns the total encoded size of the value, validating the blob.
func (a Accessor) Size() (int, error) {
	return skipValue(StructOf(a.st), a.buf, 0)
}

// Ref is a resolved reference to one value inside a blob.
type Ref struct {
	typ *Type
	buf []byte
	off int
}

func (r Ref) check(kind Kind, n int) {
	if r.typ.Kind != kind {
		panic(fmt.Sprintf("cell: %v access on %v field", kind, r.typ.Kind))
	}
	if r.off+n > len(r.buf) {
		panic(ErrShortBlob)
	}
}

// Byte reads a byte field.
func (r Ref) Byte() byte { r.check(KindByte, 1); return r.buf[r.off] }

// SetByte writes a byte field in place.
func (r Ref) SetByte(v byte) { r.check(KindByte, 1); r.buf[r.off] = v }

// Bool reads a bool field.
func (r Ref) Bool() bool { r.check(KindBool, 1); return r.buf[r.off] != 0 }

// SetBool writes a bool field in place.
func (r Ref) SetBool(v bool) {
	r.check(KindBool, 1)
	if v {
		r.buf[r.off] = 1
	} else {
		r.buf[r.off] = 0
	}
}

// Int reads an int field.
func (r Ref) Int() int32 {
	r.check(KindInt, 4)
	return int32(binary.LittleEndian.Uint32(r.buf[r.off:]))
}

// SetInt writes an int field in place.
func (r Ref) SetInt(v int32) {
	r.check(KindInt, 4)
	binary.LittleEndian.PutUint32(r.buf[r.off:], uint32(v))
}

// Long reads a long field.
func (r Ref) Long() int64 {
	r.check(KindLong, 8)
	return int64(binary.LittleEndian.Uint64(r.buf[r.off:]))
}

// SetLong writes a long field in place.
func (r Ref) SetLong(v int64) {
	r.check(KindLong, 8)
	binary.LittleEndian.PutUint64(r.buf[r.off:], uint64(v))
}

// Float reads a float field.
func (r Ref) Float() float32 {
	r.check(KindFloat, 4)
	return math.Float32frombits(binary.LittleEndian.Uint32(r.buf[r.off:]))
}

// SetFloat writes a float field in place.
func (r Ref) SetFloat(v float32) {
	r.check(KindFloat, 4)
	binary.LittleEndian.PutUint32(r.buf[r.off:], math.Float32bits(v))
}

// Double reads a double field.
func (r Ref) Double() float64 {
	r.check(KindDouble, 8)
	return math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
}

// SetDouble writes a double field in place.
func (r Ref) SetDouble(v float64) {
	r.check(KindDouble, 8)
	binary.LittleEndian.PutUint64(r.buf[r.off:], math.Float64bits(v))
}

// Str reads a string field. The returned string shares no memory with the
// blob (strings are immutable in Go, so a copy is required).
func (r Ref) Str() string {
	r.check(KindString, 4)
	n := int(binary.LittleEndian.Uint32(r.buf[r.off:]))
	if r.off+4+n > len(r.buf) {
		panic(ErrShortBlob)
	}
	return string(r.buf[r.off+4 : r.off+4+n])
}

// Struct descends into a struct-typed field.
func (r Ref) Struct() Accessor {
	if r.typ.Kind != KindStruct {
		panic(fmt.Sprintf("cell: Struct access on %v field", r.typ.Kind))
	}
	return Accessor{st: r.typ.Struct, buf: r.buf[r.off:]}
}

// List returns a reference to a list field.
func (r Ref) List() ListRef {
	if r.typ.Kind != KindList {
		panic(fmt.Sprintf("cell: List access on %v field", r.typ.Kind))
	}
	if r.off+4 > len(r.buf) {
		panic(ErrShortBlob)
	}
	return ListRef{elem: r.typ.Elem, buf: r.buf, off: r.off}
}

// ListRef is a resolved reference to a list value.
type ListRef struct {
	elem *Type
	buf  []byte
	off  int
}

// Len returns the element count.
func (l ListRef) Len() int {
	return int(binary.LittleEndian.Uint32(l.buf[l.off:]))
}

// At returns a reference to element i. For fixed-size elements this is
// O(1); for variable-size elements it walks the preceding elements.
func (l ListRef) At(i int) Ref {
	n := l.Len()
	if i < 0 || i >= n {
		panic(fmt.Sprintf("cell: list index %d out of range [0,%d)", i, n))
	}
	if esz, ok := l.elem.FixedSize(); ok {
		return Ref{typ: l.elem, buf: l.buf, off: l.off + 4 + i*esz}
	}
	off := l.off + 4
	for j := 0; j < i; j++ {
		sz, err := skipValue(l.elem, l.buf, off)
		if err != nil {
			panic(err)
		}
		off += sz
	}
	return Ref{typ: l.elem, buf: l.buf, off: off}
}

// Longs decodes a List<long> into a fresh slice.
func (l ListRef) Longs() []int64 {
	if l.elem.Kind != KindLong {
		panic(fmt.Sprintf("cell: Longs on List<%v>", l.elem))
	}
	n := l.Len()
	out := make([]int64, n)
	base := l.off + 4
	for i := 0; i < n; i++ {
		out[i] = int64(binary.LittleEndian.Uint64(l.buf[base+8*i:]))
	}
	return out
}
