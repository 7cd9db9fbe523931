package tsl

import (
	"fmt"
	"go/format"
	"regexp"
	"strconv"
	"strings"

	"trinity/internal/cell"
)

// Generate emits Go source for a compiled TSL script. This is the Go
// analogue of the C# the original TSL compiler produced ("the TSL
// compiler generates highly efficient and powerful source code for data
// manipulation and communication", §4.2). For each struct S it emits:
//
//   - the Go struct S with Size, AppendTo and Unmarshal in the cell blob
//     layout;
//   - SAccessor, the cell accessor of §4.3: a map from fields to blob
//     offsets, made by NewSAccessor once the blob is checked whole. A
//     fixed field is read at a constant offset, or past the length
//     prefixes of the variable fields before it; a list reads as a
//     zero-copy <Elem>List.
//
// In-place writes are for the package that owns the schema, since they
// bypass whatever it keeps about its cells (graph's partition epochs, for
// one), so they are unexported: setF for each fixed primitive field, set
// on each list of fixed primitives, and locateSF, the offset of list F's
// count that Slave.ListAppend wants. Each protocol gets typed stubs over
// the message passing framework. The output imports only what it uses.
func Generate(pkg string, script *Script) ([]byte, error) {
	g := &generator{lists: make(map[string]listType)}
	for _, st := range script.Structs {
		g.genStruct(st)
	}
	for _, name := range g.listOrder {
		g.genList(name, g.lists[name])
	}
	for _, p := range script.Protocols {
		g.genProtocol(p)
	}
	body := g.sb.String()
	code := regexp.MustCompile(`(?m)^\s*//.*$`).ReplaceAllString(body, "")
	var src strings.Builder
	fmt.Fprintf(&src, "// Code generated by tslc from a Trinity Specification Language script. DO NOT EDIT.\n\npackage %s\n\nimport (\n", pkg)
	for _, imp := range []struct{ name, path string }{
		{"context", "context"}, {"binary", "encoding/binary"}, {"fmt", "fmt"}, {"math", "math"},
		{"", ""}, {"cell", "trinity/internal/cell"}, {"msg", "trinity/internal/msg"},
	} {
		if imp.name == "" {
			src.WriteString("\n")
		} else if regexp.MustCompile(`\b` + imp.name + `\.`).MatchString(code) {
			fmt.Fprintf(&src, "\t%q\n", imp.path)
		}
	}
	src.WriteString(")\n\n" + body)
	out, err := format.Source([]byte(src.String()))
	if err != nil {
		return nil, fmt.Errorf("tsl: generated code does not compile: %w\n%s", err, src.String())
	}
	return out, nil
}

type generator struct {
	sb        strings.Builder
	lists     map[string]listType // reader types to emit, by name
	listOrder []string
}

// listType is a list that needs a reader type; edge marks a List<long>
// of cell IDs, read as uint64.
type listType struct {
	t    *cell.Type
	edge bool
}

func (g *generator) printf(format string, args ...any) {
	fmt.Fprintf(&g.sb, format, args...)
}

// goName exports a TSL identifier.
func goName(name string) string {
	return strings.ToUpper(name[:1]) + name[1:]
}

// isEdge reports whether a field holds cell IDs: the parser allows
// [EdgeType: ...] only on long and List<long>, and the ID space is
// uint64, so those fields are generated as uint64 with the same bytes.
func isEdge(f *cell.Field) bool { return f.Attrs["EdgeType"] != "" }

var primGo = map[cell.Kind]string{
	cell.KindByte: "byte", cell.KindBool: "bool", cell.KindInt: "int32",
	cell.KindLong: "int64", cell.KindFloat: "float32", cell.KindDouble: "float64",
	cell.KindString: "string",
}

// goType maps a TSL type to its Go representation.
func goType(t *cell.Type, edge bool) string {
	switch {
	case t.Kind == cell.KindLong && edge:
		return "uint64"
	case t.Kind == cell.KindList:
		return "[]" + goType(t.Elem, edge)
	case t.Kind == cell.KindStruct:
		return goName(t.Struct.Name)
	}
	return primGo[t.Kind]
}

// listName names the reader type of a list: Int64List, StringList,
// PointList, Int64ListList.
func listName(t *cell.Type, edge bool) string {
	e := t.Elem
	switch e.Kind {
	case cell.KindStruct:
		return goName(e.Struct.Name) + "List"
	case cell.KindList:
		return listName(e, edge) + "List"
	}
	return goName(goType(e, edge)) + "List"
}

// readType is what an accessor returns for a value of type t.
func (g *generator) readType(t *cell.Type, edge bool) string {
	switch t.Kind {
	case cell.KindStruct:
		return goName(t.Struct.Name) + "Accessor"
	case cell.KindList:
		name := listName(t, edge)
		if _, ok := g.lists[name]; !ok {
			g.lists[name] = listType{t, edge}
			g.listOrder = append(g.listOrder, name)
			if t.Elem.Kind == cell.KindList || t.Elem.Kind == cell.KindStruct {
				g.readType(t.Elem, edge)
			}
		}
		return name
	}
	return goType(t, edge)
}

// prefixed reports whether t is a u32 count followed by that many
// elements of one fixed size esz (a string is a list of bytes).
func prefixed(t *cell.Type) (esz int, ok bool) {
	if t.Kind == cell.KindString {
		return 1, true
	}
	if t.Kind == cell.KindList {
		return t.Elem.FixedSize()
	}
	return 0, false
}

// skipFunc names the checked walker of a variable-size type that is
// neither a string nor a list of fixed-size elements.
func skipFunc(t *cell.Type, edge bool) string {
	if t.Kind == cell.KindStruct {
		return "skip" + goName(t.Struct.Name)
	}
	return "skip" + listName(t, edge)
}

// count is the u32 prefix at offset o of blob b.
func count(b, o string) string {
	return fmt.Sprintf("int(binary.LittleEndian.Uint32(%s[%s:]))", b, o)
}

// times renders n*x, or x when n is 1.
func times(n int, x string) string {
	if n == 1 {
		return x
	}
	return fmt.Sprintf("%d*%s", n, x)
}

// step is the unchecked expression for the offset just past a value of
// type t at offset o of a blob already known to be whole.
func step(t *cell.Type, edge bool, b, o string) string {
	if n, ok := t.FixedSize(); ok {
		return plus(o, n)
	}
	if esz, ok := prefixed(t); ok {
		return plus(o, 4) + " + " + times(esz, count(b, o))
	}
	return fmt.Sprintf("%s(%s, %s)", skipFunc(t, edge), b, o)
}

// genCheck emits the checked walk of a value of type t that starts pend
// bytes past o: it moves o past the value in b, or returns -1 when b ends
// first. The last field of a struct returns the walk's end instead.
func (g *generator) genCheck(t *cell.Type, edge bool, pend int, last bool) {
	var next string
	if n, ok := t.FixedSize(); ok {
		g.printf("if o += %d; o > len(b) {\nreturn -1\n}\n", pend+n)
		if last {
			g.printf("return o\n")
		}
		return
	} else if esz, ok := prefixed(t); ok {
		next = fmt.Sprintf("cell.SkipList(b, %s, %d)", plus("o", pend), esz)
	} else {
		next = fmt.Sprintf("%s(b, %s)", skipFunc(t, edge), plus("o", pend))
	}
	if last {
		g.printf("return %s\n", next)
	} else {
		g.printf("if o = %s; o < 0 {\nreturn -1\n}\n", next)
	}
}

// readPrim is the expression reading a fixed primitive at b[o:].
func readPrim(k cell.Kind, edge bool, b, o string) string {
	at := b + "[" + o + ":]"
	switch k {
	case cell.KindByte:
		return b + "[" + o + "]"
	case cell.KindBool:
		return b + "[" + o + "] != 0"
	case cell.KindInt:
		return "int32(binary.LittleEndian.Uint32(" + at + "))"
	case cell.KindLong:
		if edge {
			return "binary.LittleEndian.Uint64(" + at + ")"
		}
		return "int64(binary.LittleEndian.Uint64(" + at + "))"
	case cell.KindFloat:
		return "math.Float32frombits(binary.LittleEndian.Uint32(" + at + "))"
	default:
		return "math.Float64frombits(binary.LittleEndian.Uint64(" + at + "))"
	}
}

// writePrim is the statement writing v as a fixed primitive at b[o:].
func writePrim(k cell.Kind, b, o, v string) string {
	at := b + "[" + o + ":]"
	switch k {
	case cell.KindByte:
		return b + "[" + o + "] = " + v
	case cell.KindBool:
		return fmt.Sprintf("%s[%s] = 0\nif %s {\n%s[%s] = 1\n}", b, o, v, b, o)
	case cell.KindInt:
		return "binary.LittleEndian.PutUint32(" + at + ", uint32(" + v + "))"
	case cell.KindLong:
		return "binary.LittleEndian.PutUint64(" + at + ", uint64(" + v + "))"
	case cell.KindFloat:
		return "binary.LittleEndian.PutUint32(" + at + ", math.Float32bits(" + v + "))"
	default:
		return "binary.LittleEndian.PutUint64(" + at + ", math.Float64bits(" + v + "))"
	}
}

// readValue is the expression an accessor returns for a value of type t
// at b[o:]; lists and structs are views over the same bytes.
func (g *generator) readValue(t *cell.Type, edge bool, b, o string) string {
	switch t.Kind {
	case cell.KindString:
		return fmt.Sprintf("string(%s[%s : %s+%s])", b, plus(o, 4), plus(o, 4), count(b, o))
	case cell.KindList:
		return fmt.Sprintf("read%s(%s, %s)", g.readType(t, edge), b, o)
	case cell.KindStruct:
		return fmt.Sprintf("%s{%s[%s:]}", g.readType(t, edge), b, o)
	}
	return readPrim(t.Kind, edge, b, o)
}

func (g *generator) genStruct(st *cell.StructType) {
	name := goName(st.Name)
	acc := name + "Accessor"
	if st.Cell {
		g.printf("// %s is a TSL cell struct: instances are stored as cells in the\n// memory cloud.\n", name)
	} else {
		g.printf("// %s is a TSL struct.\n", name)
	}
	g.printf("type %s struct {\n", name)
	for i := range st.Fields {
		f := &st.Fields[i]
		g.printf("%s %s\n", goName(f.Name), goType(f.Type, isEdge(f)))
	}
	g.printf("}\n\n")

	// Size: constant parts summed, then one term or loop per variable field.
	size, terms := 0, []string{}
	var loops strings.Builder
	for i := range st.Fields {
		f := &st.Fields[i]
		x := "x." + goName(f.Name)
		if n, ok := f.Type.FixedSize(); ok {
			size += n
		} else if esz, ok := prefixed(f.Type); ok {
			size += 4
			terms = append(terms, times(esz, "len("+x+")"))
		} else if f.Type.Kind == cell.KindStruct {
			terms = append(terms, x+".Size()")
		} else {
			size += 4
			sizeLoop(&loops, f.Type.Elem, x, 1)
		}
	}
	sum := strings.Join(append([]string{fmt.Sprint(size)}, terms...), " + ")
	g.printf("// Size returns the length of x's blob.\nfunc (x *%s) Size() int {\n", name)
	if loops.Len() == 0 {
		g.printf("return %s\n}\n\n", sum)
	} else {
		g.printf("n := %s\n%sreturn n\n}\n\n", sum, loops.String())
	}

	g.printf("// AppendTo appends x's blob to b.\nfunc (x *%s) AppendTo(b []byte) []byte {\n", name)
	for i := range st.Fields {
		f := &st.Fields[i]
		g.genAppend(f.Type, "x."+goName(f.Name), 1)
	}
	g.printf("return b\n}\n\n")
	g.printf("// Unmarshal decodes a blob that holds exactly one %s.\n", name)
	g.printf("func (x *%s) Unmarshal(b []byte) error {\n", name)
	g.printf("if n := skip%s(b, 0); n < 0 {\nreturn cell.ErrShortBlob\n} else if n != len(b) {\n", name)
	g.printf("return fmt.Errorf(\"%s: %%d trailing bytes\", len(b)-n)\n}\n", name)
	g.printf("%s{b}.get(x)\nreturn nil\n}\n\n", acc)

	// The checked walk every accessor, Unmarshal and locate starts from.
	g.printf("// skip%s returns the offset just past the %s at b[o:], or -1 if\n// b ends first.\n", name, name)
	g.printf("func skip%s(b []byte, o int) int {\n", name)
	pend := 0 // fixed bytes not yet checked
	for i := range st.Fields {
		f, last := &st.Fields[i], i+1 == len(st.Fields)
		if n, ok := f.Type.FixedSize(); ok && !last {
			pend += n
			continue
		}
		g.genCheck(f.Type, isEdge(f), pend, last)
		pend = 0
	}
	if len(st.Fields) == 0 {
		g.printf("return o\n")
	}
	g.printf("}\n\n")

	g.printf("// %s maps the fields of a %s blob to their offsets: reads\n", acc, name)
	g.printf("// go to the blob in place, with no decode and no copy of lists.\n")
	g.printf("type %s struct{ b []byte }\n\n", acc)
	g.printf("// New%s checks that b starts with a whole %s and maps it.\n", acc, name)
	g.printf("func New%s(b []byte) (%s, error) {\n", acc, acc)
	g.printf("if skip%s(b, 0) < 0 {\nreturn %s{}, cell.ErrShortBlob\n}\nreturn %s{b}, nil\n}\n\n", name, acc, acc)

	// method emits one accessor method whose body reads the blob at
	// offset o, binding a computed offset to a local first.
	method := func(sig string, o string, body func(o string) string) {
		if _, err := strconv.Atoi(o); err == nil {
			g.printf("func (a %s) %s {\n%s\n}\n\n", acc, sig, body(o))
		} else {
			g.printf("func (a %s) %s {\no := %s\n%s\n}\n\n", acc, sig, o, body("o"))
		}
	}

	// off[i] is field i's offset: a constant, or the off method of the
	// field after the last variable-size one, plus a constant.
	off := make([]string, len(st.Fields))
	base, c := "", 0
	for i := range st.Fields {
		f := &st.Fields[i]
		off[i] = plus(base, c)
		if i+1 == len(st.Fields) {
			break
		}
		if n, ok := f.Type.FixedSize(); ok {
			c += n
			continue
		}
		next := goName(st.Fields[i+1].Name)
		method("off"+next+"() int", off[i], func(o string) string { return "return " + step(f.Type, isEdge(f), "a.b", o) })
		base, c = "a.off"+next+"()", 0
	}

	g.printf("func (a %s) get(x *%s) {\n", acc, name)
	for i := range st.Fields {
		f := &st.Fields[i]
		switch fn := goName(f.Name); f.Type.Kind {
		case cell.KindList:
			g.printf("x.%s = a.%s().slice()\n", fn, fn)
		case cell.KindStruct:
			g.printf("a.%s().get(&x.%s)\n", fn, fn)
		default:
			g.printf("x.%s = a.%s()\n", fn, fn)
		}
	}
	g.printf("}\n\n")

	for i := range st.Fields {
		f := &st.Fields[i]
		fn, edge := goName(f.Name), isEdge(f)
		rt := g.readType(f.Type, edge)
		switch f.Type.Kind {
		case cell.KindString:
			g.printf("// %s reads the %s field (a copy: Go strings are immutable).\n", fn, f.Name)
		case cell.KindList, cell.KindStruct:
			g.printf("// %s maps the %s field in place.\n", fn, f.Name)
		default:
			g.printf("// %s reads the %s field.\n", fn, f.Name)
		}
		method(fn+"() "+rt, off[i], func(o string) string { return "return " + g.readValue(f.Type, edge, "a.b", o) })
		if _, ok := primGo[f.Type.Kind]; ok && f.Type.Kind != cell.KindString {
			method("set"+fn+"(v "+rt+")", off[i], func(o string) string { return writePrim(f.Type.Kind, "a.b", o, "v") })
		}
		if f.Type.Kind == cell.KindList {
			g.printf("// locate%s%s returns the offset of the %s count in a whole %s\n// blob, for Slave.ListAppend.\n", name, fn, f.Name, name)
			g.printf("func locate%s%s(b []byte) (int, error) {\n", name, fn)
			g.printf("if skip%s(b, 0) < 0 {\nreturn 0, cell.ErrShortBlob\n}\nreturn %s, nil\n}\n\n", name, strings.ReplaceAll(off[i], "a.", acc+"{b}."))
		}
	}
}

// plus renders o+n, folding constants.
func plus(o string, n int) string {
	if o == "" {
		return strconv.Itoa(n)
	}
	if k, err := strconv.Atoi(o); err == nil {
		return strconv.Itoa(k + n)
	}
	if n == 0 {
		return o
	}
	return fmt.Sprintf("%s+%d", o, n)
}

// sizeLoop writes the Size loop over a list of variable-size elements.
func sizeLoop(w *strings.Builder, elem *cell.Type, x string, depth int) {
	e := fmt.Sprintf("e%d", depth)
	fmt.Fprintf(w, "for _, %s := range %s {\n", e, x)
	if esz, ok := prefixed(elem); ok {
		fmt.Fprintf(w, "n += 4 + %s\n", times(esz, "len("+e+")"))
	} else if elem.Kind == cell.KindStruct {
		fmt.Fprintf(w, "n += %s.Size()\n", e)
	} else {
		fmt.Fprintf(w, "n += 4\n")
		sizeLoop(w, elem.Elem, e, depth+1)
	}
	fmt.Fprintf(w, "}\n")
}

// genList emits the reader of one list type: Len, At, slice (the copy
// Unmarshal makes), read (the constructor at a count prefix), set for
// fixed primitives, and skip for variable-size elements.
func (g *generator) genList(name string, lt listType) {
	e, edge := lt.t.Elem, lt.edge
	et := g.readType(e, edge)
	esz, fixedElems := e.FixedSize()
	g.printf("// %s reads a %s in place.\ntype %s struct {\nb []byte\nn int\n}\n\n", name, lt.t, name)
	g.printf("func read%s(b []byte, o int) %s {\n", name, name)
	if fixedElems {
		g.printf("n := %s\nreturn %s{b[o+4 : o+4+%s], n}\n}\n\n", count("b", "o"), name, times(esz, "n"))
	} else {
		g.printf("return %s{b[o+4:], %s}\n}\n\n", name, count("b", "o"))
	}
	g.printf("// Len returns the number of elements.\nfunc (l %s) Len() int { return l.n }\n\n", name)
	g.printf("// At returns element i.\nfunc (l %s) At(i int) %s {\n", name, et)
	if fixedElems {
		g.printf("return %s\n}\n\n", g.readValue(e, edge, "l.b", times(esz, "i")))
	} else {
		g.printf("o := 0\nfor ; i > 0; i-- {\no = %s\n}\nreturn %s\n}\n\n", step(e, edge, "l.b", "o"), g.readValue(e, edge, "l.b", "o"))
	}
	if _, prim := primGo[e.Kind]; prim && fixedElems {
		g.printf("func (l %s) set(i int, v %s) {\n%s\n}\n\n", name, et, writePrim(e.Kind, "l.b", times(esz, "i"), "v"))
	}
	g.printf("func (l %s) slice() %s {\nif l.n == 0 {\nreturn nil\n}\n", name, goType(lt.t, edge))
	g.printf("s := make(%s, l.n)\n", goType(lt.t, edge))
	get := func(o string) string {
		switch e.Kind {
		case cell.KindStruct:
			return fmt.Sprintf("%s{l.b[%s:]}.get(&s[i])", et, o)
		case cell.KindList:
			return fmt.Sprintf("s[i] = %s.slice()", g.readValue(e, edge, "l.b", o))
		}
		return "s[i] = " + g.readValue(e, edge, "l.b", o)
	}
	if fixedElems {
		g.printf("for i := range s {\n%s\n}\nreturn s\n}\n\n", get(times(esz, "i")))
	} else {
		g.printf("o := 0\nfor i := range s {\n%s\no = %s\n}\nreturn s\n}\n\n", get("o"), step(e, edge, "l.b", "o"))
		g.printf("func skip%s(b []byte, o int) int {\nif o += 4; o > len(b) {\nreturn -1\n}\n", name)
		g.printf("for n := binary.LittleEndian.Uint32(b[o-4:]); n > 0; n-- {\n")
		g.genCheck(e, edge, 0, false)
		g.printf("}\nreturn o\n}\n\n")
	}
}

// genAppend emits serialization code for one value expression.
func (g *generator) genAppend(t *cell.Type, expr string, depth int) {
	switch t.Kind {
	case cell.KindByte:
		g.printf("b = append(b, %s)\n", expr)
	case cell.KindBool:
		g.printf("if %s {\nb = append(b, 1)\n} else {\nb = append(b, 0)\n}\n", expr)
	case cell.KindInt:
		g.printf("b = binary.LittleEndian.AppendUint32(b, uint32(%s))\n", expr)
	case cell.KindLong:
		g.printf("b = binary.LittleEndian.AppendUint64(b, uint64(%s))\n", expr)
	case cell.KindFloat:
		g.printf("b = binary.LittleEndian.AppendUint32(b, math.Float32bits(%s))\n", expr)
	case cell.KindDouble:
		g.printf("b = binary.LittleEndian.AppendUint64(b, math.Float64bits(%s))\n", expr)
	case cell.KindString:
		g.printf("b = binary.LittleEndian.AppendUint32(b, uint32(len(%s)))\n", expr)
		g.printf("b = append(b, %s...)\n", expr)
	case cell.KindList:
		g.printf("b = binary.LittleEndian.AppendUint32(b, uint32(len(%s)))\n", expr)
		if t.Elem.Kind == cell.KindStruct {
			idx := fmt.Sprintf("i%d", depth)
			g.printf("for %s := range %s {\nb = %s[%s].AppendTo(b)\n}\n", idx, expr, expr, idx)
		} else {
			v := fmt.Sprintf("e%d", depth)
			g.printf("for _, %s := range %s {\n", v, expr)
			g.genAppend(t.Elem, v, depth+1)
			g.printf("}\n")
		}
	case cell.KindStruct:
		g.printf("b = %s.AppendTo(b)\n", expr)
	}
}

// genProtocol emits the stubs for one protocol: a typed caller (sync) or
// sender (async), and a handler registration helper. Calling a protocol
// reads like calling a local method; Trinity handles dispatch and packing
// (paper §4.2).
func (g *generator) genProtocol(p *Protocol) {
	name := goName(p.Name)
	g.printf("// %sID is the wire identifier of the %s protocol.\n", name, p.Name)
	g.printf("const %sID msg.ProtocolID = %#x\n\n", name, uint16(p.ID))

	reqType := ""
	if p.Request != nil {
		reqType = "*" + goName(p.Request.Name)
	}
	respType := ""
	if p.Response != nil {
		respType = "*" + goName(p.Response.Name)
	}

	marshalReq := "nil"
	if p.Request != nil {
		marshalReq = "req.AppendTo(nil)"
	}

	if p.Type == Syn {
		// Caller.
		params := "ctx context.Context, n *msg.Node, to msg.MachineID"
		if reqType != "" {
			params += ", req " + reqType
		}
		if respType != "" {
			g.printf("// Call%s invokes the synchronous %s protocol on machine `to`.\n", name, p.Name)
			g.printf("func Call%s(%s) (%s, error) {\n", name, params, respType)
			g.printf("\tpayload, err := n.Call(ctx, to, %sID, %s)\n", name, marshalReq)
			g.printf("\tif err != nil {\n\t\treturn nil, err\n\t}\n")
			g.printf("\tresp := new(%s)\n", goName(p.Response.Name))
			g.printf("\tif err := resp.Unmarshal(payload); err != nil {\n\t\treturn nil, err\n\t}\n")
			g.printf("\treturn resp, nil\n}\n\n")
		} else {
			g.printf("// Call%s invokes the synchronous %s protocol on machine `to`.\n", name, p.Name)
			g.printf("func Call%s(%s) error {\n", name, params)
			g.printf("\t_, err := n.Call(ctx, to, %sID, %s)\n", name, marshalReq)
			g.printf("\treturn err\n}\n\n")
		}
		// Handler.
		hReq := "context.Context, msg.MachineID"
		if reqType != "" {
			hReq += ", " + reqType
		}
		hResp := "error"
		if respType != "" {
			hResp = "(" + respType + ", error)"
		}
		g.printf("// Register%s installs the %s handler; implement the algorithm logic\n// as if it were a local method.\n", name, p.Name)
		g.printf("func Register%s(n *msg.Node, h func(%s) %s) {\n", name, hReq, hResp)
		g.printf("\tn.HandleSync(%sID, func(ctx context.Context, from msg.MachineID, b []byte) ([]byte, error) {\n", name)
		callArgs := "ctx, from"
		if p.Request != nil {
			g.printf("\t\treq := new(%s)\n", goName(p.Request.Name))
			g.printf("\t\tif err := req.Unmarshal(b); err != nil {\n\t\t\treturn nil, err\n\t\t}\n")
			callArgs += ", req"
		}
		if p.Response != nil {
			g.printf("\t\tresp, err := h(%s)\n", callArgs)
			g.printf("\t\tif err != nil {\n\t\t\treturn nil, err\n\t\t}\n")
			g.printf("\t\treturn resp.AppendTo(nil), nil\n")
		} else {
			g.printf("\t\treturn nil, h(%s)\n", callArgs)
		}
		g.printf("\t})\n}\n\n")
		return
	}

	// Asynchronous protocol: sender + handler. Small messages are packed
	// automatically by the messaging layer.
	params := "n *msg.Node, to msg.MachineID"
	if reqType != "" {
		params += ", req " + reqType
	}
	g.printf("// Send%s sends an asynchronous %s message to machine `to`.\n", name, p.Name)
	g.printf("func Send%s(%s) error {\n", name, params)
	g.printf("\treturn n.Send(to, %sID, %s)\n}\n\n", name, marshalReq)
	hReq := "msg.MachineID"
	if reqType != "" {
		hReq += ", " + reqType
	}
	g.printf("// Register%s installs the asynchronous %s handler.\n", name, p.Name)
	g.printf("func Register%s(n *msg.Node, h func(%s)) {\n", name, hReq)
	g.printf("\tn.HandleAsync(%sID, func(from msg.MachineID, b []byte) {\n", name)
	if p.Request != nil {
		g.printf("\t\treq := new(%s)\n", goName(p.Request.Name))
		g.printf("\t\tif err := req.Unmarshal(b); err != nil {\n\t\t\treturn\n\t\t}\n")
		g.printf("\t\th(from, req)\n")
	} else {
		g.printf("\t\th(from)\n")
	}
	g.printf("\t})\n}\n\n")
}
