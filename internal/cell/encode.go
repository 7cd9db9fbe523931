package cell

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Value is a dynamic value for encoding: one of byte, bool, int32, int64,
// float32, float64, string, []Value (for lists), []int64 (shortcut for
// List<long>), or map[string]Value (for structs). Missing struct fields
// encode as zero values.
type Value any

// Encode serializes a struct value described by v into a fresh blob laid
// out per the schema: the reference the generated codecs and accessors
// are checked against.
//
//reach:test-seam reference encoder: graph's and cell's tests check the tslc-generated codecs and accessors against it
func Encode(st *StructType, v map[string]Value) ([]byte, error) {
	var buf []byte
	return appendStruct(buf, st, v)
}

func appendStruct(buf []byte, st *StructType, v map[string]Value) ([]byte, error) {
	for i := range st.Fields {
		f := &st.Fields[i]
		var err error
		buf, err = appendValue(buf, f.Type, v[f.Name])
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", st.Name, f.Name, err)
		}
	}
	return buf, nil
}

func appendValue(buf []byte, t *Type, v Value) ([]byte, error) {
	switch t.Kind {
	case KindByte:
		b, err := asByte(v)
		if err != nil {
			return nil, err
		}
		return append(buf, b), nil
	case KindBool:
		bv, ok := v.(bool)
		if v == nil {
			bv, ok = false, true
		}
		if !ok {
			return nil, fmt.Errorf("cell: want bool, got %T", v)
		}
		if bv {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case KindInt:
		n, err := asInt64(v)
		if err != nil {
			return nil, err
		}
		return binary.LittleEndian.AppendUint32(buf, uint32(int32(n))), nil
	case KindLong:
		n, err := asInt64(v)
		if err != nil {
			return nil, err
		}
		return binary.LittleEndian.AppendUint64(buf, uint64(n)), nil
	case KindFloat:
		f, err := asFloat64(v)
		if err != nil {
			return nil, err
		}
		return binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(f))), nil
	case KindDouble:
		f, err := asFloat64(v)
		if err != nil {
			return nil, err
		}
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f)), nil
	case KindString:
		s := ""
		if v != nil {
			var ok bool
			s, ok = v.(string)
			if !ok {
				return nil, fmt.Errorf("cell: want string, got %T", v)
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		return append(buf, s...), nil
	case KindList:
		return appendList(buf, t, v)
	case KindStruct:
		m := map[string]Value{}
		if v != nil {
			var ok bool
			m, ok = v.(map[string]Value)
			if !ok {
				return nil, fmt.Errorf("cell: want map[string]Value for struct %s, got %T", t.Struct.Name, v)
			}
		}
		return appendStruct(buf, t.Struct, m)
	default:
		return nil, fmt.Errorf("cell: cannot encode kind %v", t.Kind)
	}
}

func appendList(buf []byte, t *Type, v Value) ([]byte, error) {
	switch elems := v.(type) {
	case nil:
		return binary.LittleEndian.AppendUint32(buf, 0), nil
	case []int64:
		if t.Elem.Kind != KindLong {
			return nil, fmt.Errorf("cell: []int64 for List<%v>", t.Elem)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(elems)))
		for _, e := range elems {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(e))
		}
		return buf, nil
	case []Value:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(elems)))
		var err error
		for i, e := range elems {
			buf, err = appendValue(buf, t.Elem, e)
			if err != nil {
				return nil, fmt.Errorf("[%d]: %w", i, err)
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("cell: want list value, got %T", v)
	}
}

func asByte(v Value) (byte, error) {
	switch n := v.(type) {
	case nil:
		return 0, nil
	case byte:
		return n, nil
	case int:
		return byte(n), nil
	default:
		return 0, fmt.Errorf("cell: want byte, got %T", v)
	}
}

func asInt64(v Value) (int64, error) {
	switch n := v.(type) {
	case nil:
		return 0, nil
	case int:
		return int64(n), nil
	case int32:
		return int64(n), nil
	case int64:
		return n, nil
	case uint64:
		return int64(n), nil
	default:
		return 0, fmt.Errorf("cell: want integer, got %T", v)
	}
}

func asFloat64(v Value) (float64, error) {
	switch f := v.(type) {
	case nil:
		return 0, nil
	case float32:
		return float64(f), nil
	case float64:
		return f, nil
	case int:
		return float64(f), nil
	default:
		return 0, fmt.Errorf("cell: want float, got %T", v)
	}
}
