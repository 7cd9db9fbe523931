// Package cell implements Trinity's cell accessor mechanism (paper §4.3):
// object-oriented, zero-copy access to cells stored as blobs in the memory
// cloud.
//
// A cell accessor "is not a data container, but a data mapper: it maps the
// fields declared in the data structure to the correct memory locations in
// the blob". Fields cannot be reached by naive struct casting because
// variable-length members (strings, lists) make the layout data-dependent,
// so the accessor walks the schema, skipping over preceding fields to
// resolve each offset.
//
// The schema types here are produced by the TSL compiler (internal/tsl)
// from `cell struct` declarations, but can also be built programmatically.
package cell

import (
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

	index map[string]int
}

// NewStruct builds a StructType, validating field-name uniqueness.
func NewStruct(name string, cell bool, fields []Field) (*StructType, error) {
	st := &StructType{Name: name, Cell: cell, Fields: fields, index: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("cell: struct %s: field %d has no name", name, i)
		}
		if _, dup := st.index[f.Name]; dup {
			return nil, fmt.Errorf("cell: struct %s: duplicate field %s", name, f.Name)
		}
		if f.Type == nil {
			return nil, fmt.Errorf("cell: struct %s: field %s has no type", name, f.Name)
		}
		st.index[f.Name] = i
	}
	return st, nil
}

// FieldIndex returns the position of the named field, or -1.
func (st *StructType) FieldIndex(name string) int {
	if i, ok := st.index[name]; ok {
		return i
	}
	return -1
}

// ErrNoField reports an unknown field name.
var ErrNoField = errors.New("cell: no such field")

// ErrShortBlob reports a blob too small for the schema.
var ErrShortBlob = errors.New("cell: blob too short for schema")
