// Package cell holds the runtime description of Trinity's cell layout
// (paper §4.3): the TSL types a schema is made of, the blob encoding of
// each, and the reference encoder the generated code is checked against.
//
// A cell is a blob. Fixed-size kinds encode little-endian with no
// padding; strings and lists carry a u32 length prefix, so the layout is
// data-dependent and no field past the first variable one sits at a
// constant offset. The TSL compiler (internal/tsl) builds these types from
// `cell struct` declarations, and cmd/tslc compiles them to accessors that
// walk the length prefixes to each field's offset.
package cell

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Kind enumerates the TSL data types.
type Kind uint8

// The supported kinds. Fixed-size kinds encode little-endian with no
// padding; String is a u32 length followed by UTF-8 bytes; List is a u32
// element count followed by the elements; Struct is its fields in
// declaration order.
const (
	KindInvalid Kind = iota
	KindByte         // 1 byte
	KindBool         // 1 byte, 0 or 1
	KindInt          // 4 bytes, int32
	KindLong         // 8 bytes, int64 (cell IDs)
	KindFloat        // 4 bytes
	KindDouble       // 8 bytes
	KindString       // u32 length + bytes
	KindList         // u32 count + elements
	KindStruct       // fields in order
)

func (k Kind) String() string {
	switch k {
	case KindByte:
		return "byte"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindLong:
		return "long"
	case KindFloat:
		return "float"
	case KindDouble:
		return "double"
	case KindString:
		return "string"
	case KindList:
		return "List"
	case KindStruct:
		return "struct"
	default:
		return "invalid"
	}
}

// Type describes a TSL type.
type Type struct {
	Kind Kind
	// Elem is the element type for KindList.
	Elem *Type
	// Struct is the definition for KindStruct.
	Struct *StructType
}

// Primitive returns the shared Type value for a primitive kind.
func Primitive(k Kind) *Type {
	switch k {
	case KindByte:
		return typeByte
	case KindBool:
		return typeBool
	case KindInt:
		return typeInt
	case KindLong:
		return typeLong
	case KindFloat:
		return typeFloat
	case KindDouble:
		return typeDouble
	case KindString:
		return typeString
	default:
		panic(fmt.Sprintf("cell: %v is not a primitive kind", k))
	}
}

var (
	typeByte   = &Type{Kind: KindByte}
	typeBool   = &Type{Kind: KindBool}
	typeInt    = &Type{Kind: KindInt}
	typeLong   = &Type{Kind: KindLong}
	typeFloat  = &Type{Kind: KindFloat}
	typeDouble = &Type{Kind: KindDouble}
	typeString = &Type{Kind: KindString}
)

// ListOf returns the list type with the given element type.
func ListOf(elem *Type) *Type { return &Type{Kind: KindList, Elem: elem} }

// StructOf returns the struct type for a definition.
func StructOf(st *StructType) *Type { return &Type{Kind: KindStruct, Struct: st} }

// FixedSize returns the encoded size of the type and true if it is the
// same for all values; variable-size types return 0, false.
func (t *Type) FixedSize() (int, bool) {
	switch t.Kind {
	case KindByte, KindBool:
		return 1, true
	case KindInt, KindFloat:
		return 4, true
	case KindLong, KindDouble:
		return 8, true
	case KindString, KindList:
		return 0, false
	case KindStruct:
		total := 0
		for i := range t.Struct.Fields {
			n, ok := t.Struct.Fields[i].Type.FixedSize()
			if !ok {
				return 0, false
			}
			total += n
		}
		return total, true
	default:
		return 0, false
	}
}

func (t *Type) String() string {
	switch t.Kind {
	case KindList:
		return "List<" + t.Elem.String() + ">"
	case KindStruct:
		return t.Struct.Name
	default:
		return t.Kind.String()
	}
}

// Field is one member of a struct.
type Field struct {
	Name string
	Type *Type
	// Attrs holds TSL attributes such as EdgeType and ReferencedCell.
	Attrs map[string]string
}

// StructType is a TSL `struct` or `cell struct` definition.
type StructType struct {
	Name string
	// Cell reports whether this was declared `cell struct` (storable as a
	// top-level cell in the memory cloud).
	Cell bool
	// Attrs holds struct-level attributes such as CellType.
	Attrs  map[string]string
	Fields []Field
}

// NewStruct builds a StructType, validating field-name uniqueness.
func NewStruct(name string, cell bool, fields []Field) (*StructType, error) {
	seen := make(map[string]bool, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("cell: struct %s: field %d has no name", name, i)
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("cell: struct %s: duplicate field %s", name, f.Name)
		}
		if f.Type == nil {
			return nil, fmt.Errorf("cell: struct %s: field %s has no type", name, f.Name)
		}
		seen[f.Name] = true
	}
	return &StructType{Name: name, Cell: cell, Fields: fields}, nil
}

// ErrShortBlob reports a blob too small for the schema.
var ErrShortBlob = errors.New("cell: blob too short for schema")

// SkipList returns the offset just past the list at b[o:] — a u32 count,
// then that many elements of esz bytes each (a string is a list of
// bytes) — or -1 if b ends first. Generated accessors check blobs with it.
func SkipList(b []byte, o, esz int) int {
	if o+4 > len(b) {
		return -1
	}
	if o += 4 + esz*int(binary.LittleEndian.Uint32(b[o:])); o > len(b) {
		return -1
	}
	return o
}
