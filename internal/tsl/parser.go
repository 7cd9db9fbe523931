package tsl

import (
	"fmt"

	"trinity/internal/cell"
	"trinity/internal/msg"
)

// --- AST ---

// astType is a parsed (unresolved) type reference.
type astType struct {
	name      string   // primitive or struct name; "List" for lists
	elem      *astType // list element
	line, col int
}

type astField struct {
	attrs     map[string]string
	typ       *astType
	name      string
	line, col int
}

type astStruct struct {
	attrs     map[string]string
	isCell    bool
	name      string
	fields    []astField
	line, col int
}

type astProtocol struct {
	name      string
	props     map[string]string // Type / Request / Response
	line, col int
}

type astScript struct {
	structs   []*astStruct
	protocols []*astProtocol
}

// --- resolved output ---

// ProtocolType distinguishes synchronous (request-response) protocols from
// asynchronous one-way protocols, the TSL "Type: Syn|Asyn" property.
type ProtocolType uint8

// Protocol types.
const (
	Syn ProtocolType = iota
	Asyn
)

// Protocol is a compiled TSL protocol declaration.
type Protocol struct {
	Name string
	Type ProtocolType
	// Request and Response name struct types; either may be nil (void).
	// Asynchronous protocols have no response.
	Request  *cell.StructType
	Response *cell.StructType
	// ID is the wire protocol identifier assigned by the compiler:
	// ProtoUserBase + declaration index.
	ID msg.ProtocolID
}

// ProtoUserBase is the first protocol ID handed to TSL-declared protocols.
// It leaves room below for the engine's built-in protocols.
const ProtoUserBase msg.ProtocolID = 0x1000

// Script is a fully compiled TSL script.
type Script struct {
	// Structs in declaration order; includes both cell and plain structs.
	Structs []*cell.StructType
	// Protocols in declaration order, with IDs assigned.
	Protocols []*Protocol

	structsByName map[string]*cell.StructType
}

// Struct returns the named struct type, or nil.
func (s *Script) Struct(name string) *cell.StructType {
	return s.structsByName[name]
}

// CellStructs returns the structs declared `cell struct`, in order.
func (s *Script) CellStructs() []*cell.StructType {
	var out []*cell.StructType
	for _, st := range s.Structs {
		if st.Cell {
			out = append(out, st)
		}
	}
	return out
}

// --- parser ---

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) bump() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, errf(t.line, t.col, "expected %v, found %v %q", k, t.kind, t.text)
	}
	return p.bump(), nil
}

func (p *parser) expectIdent(text string) error {
	t := p.cur()
	if t.kind != tokIdent || t.text != text {
		return errf(t.line, t.col, "expected %q, found %q", text, t.text)
	}
	p.bump()
	return nil
}

// parseAttrs parses an optional [A, B: C, D: "s"] attribute list.
func (p *parser) parseAttrs() (map[string]string, error) {
	if p.cur().kind != tokLBracket {
		return nil, nil
	}
	p.bump()
	attrs := make(map[string]string)
	for {
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		val := ""
		if p.cur().kind == tokColon {
			p.bump()
			t := p.cur()
			if t.kind != tokIdent && t.kind != tokString {
				return nil, errf(t.line, t.col, "expected attribute value, found %v", t.kind)
			}
			val = p.bump().text
		}
		if _, dup := attrs[name.text]; dup {
			return nil, errf(name.line, name.col, "duplicate attribute %q", name.text)
		}
		attrs[name.text] = val
		switch p.cur().kind {
		case tokComma:
			p.bump()
		case tokRBracket:
			p.bump()
			return attrs, nil
		default:
			t := p.cur()
			return nil, errf(t.line, t.col, "expected ',' or ']' in attribute list, found %q", t.text)
		}
	}
}

func (p *parser) parseType() (*astType, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	at := &astType{name: t.text, line: t.line, col: t.col}
	if t.text == "List" {
		if _, err := p.expect(tokLAngle); err != nil {
			return nil, err
		}
		at.elem, err = p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRAngle); err != nil {
			return nil, err
		}
	}
	return at, nil
}

func (p *parser) parseStruct(attrs map[string]string, isCell bool) (*astStruct, error) {
	if err := p.expectIdent("struct"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	st := &astStruct{attrs: attrs, isCell: isCell, name: name.text, line: name.line, col: name.col}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for p.cur().kind != tokRBrace {
		fattrs, err := p.parseAttrs()
		if err != nil {
			return nil, err
		}
		ftype, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fname, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemicolon); err != nil {
			return nil, err
		}
		st.fields = append(st.fields, astField{
			attrs: fattrs, typ: ftype, name: fname.text,
			line: fname.line, col: fname.col,
		})
	}
	p.bump() // }
	return st, nil
}

func (p *parser) parseProtocol() (*astProtocol, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	pr := &astProtocol{name: name.text, props: make(map[string]string), line: name.line, col: name.col}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for p.cur().kind != tokRBrace {
		key, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		val, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemicolon); err != nil {
			return nil, err
		}
		if _, dup := pr.props[key.text]; dup {
			return nil, errf(key.line, key.col, "duplicate protocol property %q", key.text)
		}
		pr.props[key.text] = val.text
	}
	p.bump() // }
	return pr, nil
}

func parse(src string) (*astScript, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	script := &astScript{}
	for p.cur().kind != tokEOF {
		attrs, err := p.parseAttrs()
		if err != nil {
			return nil, err
		}
		t := p.cur()
		if t.kind != tokIdent {
			return nil, errf(t.line, t.col, "expected declaration, found %v", t.kind)
		}
		switch t.text {
		case "cell":
			p.bump()
			st, err := p.parseStruct(attrs, true)
			if err != nil {
				return nil, err
			}
			script.structs = append(script.structs, st)
		case "struct":
			st, err := p.parseStruct(attrs, false)
			if err != nil {
				return nil, err
			}
			script.structs = append(script.structs, st)
		case "protocol":
			if attrs != nil {
				return nil, errf(t.line, t.col, "protocols cannot have attributes")
			}
			p.bump()
			pr, err := p.parseProtocol()
			if err != nil {
				return nil, err
			}
			script.protocols = append(script.protocols, pr)
		default:
			return nil, errf(t.line, t.col, "expected 'cell', 'struct' or 'protocol', found %q", t.text)
		}
	}
	return script, nil
}

// primitiveKinds maps TSL primitive type names to cell kinds.
var primitiveKinds = map[string]cell.Kind{
	"byte":   cell.KindByte,
	"bool":   cell.KindBool,
	"int":    cell.KindInt,
	"long":   cell.KindLong,
	"float":  cell.KindFloat,
	"double": cell.KindDouble,
	"string": cell.KindString,
}

// Compile parses and semantically checks a TSL script, producing runtime
// schemas and protocol descriptors.
func Compile(src string) (*Script, error) {
	ast, err := parse(src)
	if err != nil {
		return nil, err
	}
	return analyze(ast)
}

// analyze performs name resolution, cycle detection, and attribute and
// protocol validation.
func analyze(ast *astScript) (*Script, error) {
	// Pass 1: declare all struct names (forward references are legal).
	byName := make(map[string]*astStruct, len(ast.structs))
	for _, st := range ast.structs {
		if _, dup := byName[st.name]; dup {
			return nil, errf(st.line, st.col, "duplicate struct %q", st.name)
		}
		if _, isPrim := primitiveKinds[st.name]; isPrim || st.name == "List" {
			return nil, errf(st.line, st.col, "struct name %q shadows a built-in type", st.name)
		}
		byName[st.name] = st
	}

	// Cycle detection over direct and list-carried struct embedding: a
	// struct reachable from itself has no finite layout.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(st *astStruct) error
	var typeRefs func(t *astType, out *[]string)
	typeRefs = func(t *astType, out *[]string) {
		if t.elem != nil {
			typeRefs(t.elem, out)
			return
		}
		if _, prim := primitiveKinds[t.name]; !prim {
			*out = append(*out, t.name)
		}
	}
	visit = func(st *astStruct) error {
		color[st.name] = grey
		for _, f := range st.fields {
			var refs []string
			typeRefs(f.typ, &refs)
			for _, ref := range refs {
				dep, ok := byName[ref]
				if !ok {
					return errf(f.line, f.col, "unknown type %q", ref)
				}
				switch color[ref] {
				case grey:
					return errf(f.line, f.col, "struct cycle through %q", ref)
				case white:
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		color[st.name] = black
		return nil
	}
	for _, st := range ast.structs {
		if color[st.name] == white {
			if err := visit(st); err != nil {
				return nil, err
			}
		}
	}

	// Pass 2: build cell.StructTypes bottom-up (cycle-free guarantees
	// dependencies resolve first when we memoize).
	built := make(map[string]*cell.StructType)
	var buildStruct func(st *astStruct) (*cell.StructType, error)
	var buildType func(t *astType) (*cell.Type, error)
	buildType = func(t *astType) (*cell.Type, error) {
		if t.name == "List" {
			elem, err := buildType(t.elem)
			if err != nil {
				return nil, err
			}
			return cell.ListOf(elem), nil
		}
		if k, ok := primitiveKinds[t.name]; ok {
			return cell.Primitive(k), nil
		}
		dep, err := buildStruct(byName[t.name])
		if err != nil {
			return nil, err
		}
		return cell.StructOf(dep), nil
	}
	buildStruct = func(st *astStruct) (*cell.StructType, error) {
		if b, ok := built[st.name]; ok {
			return b, nil
		}
		fields := make([]cell.Field, 0, len(st.fields))
		for _, f := range st.fields {
			ft, err := buildType(f.typ)
			if err != nil {
				return nil, err
			}
			if err := checkFieldAttrs(byName, f); err != nil {
				return nil, err
			}
			fields = append(fields, cell.Field{Name: f.name, Type: ft, Attrs: f.attrs})
		}
		b, err := cell.NewStruct(st.name, st.isCell, fields)
		if err != nil {
			return nil, errf(st.line, st.col, "%v", err)
		}
		b.Attrs = st.attrs
		built[st.name] = b
		return b, nil
	}

	out := &Script{structsByName: make(map[string]*cell.StructType)}
	for _, st := range ast.structs {
		b, err := buildStruct(st)
		if err != nil {
			return nil, err
		}
		out.Structs = append(out.Structs, b)
		out.structsByName[st.name] = b
	}

	// Pass 3: protocols.
	protoNames := make(map[string]bool)
	for i, pr := range ast.protocols {
		if protoNames[pr.name] {
			return nil, errf(pr.line, pr.col, "duplicate protocol %q", pr.name)
		}
		protoNames[pr.name] = true
		p := &Protocol{Name: pr.name, ID: ProtoUserBase + msg.ProtocolID(i)}
		switch pr.props["Type"] {
		case "Syn":
			p.Type = Syn
		case "Asyn":
			p.Type = Asyn
		case "":
			return nil, errf(pr.line, pr.col, "protocol %q missing Type property", pr.name)
		default:
			return nil, errf(pr.line, pr.col, "protocol %q: Type must be Syn or Asyn, got %q", pr.name, pr.props["Type"])
		}
		resolve := func(prop string) (*cell.StructType, error) {
			name, ok := pr.props[prop]
			if !ok || name == "void" {
				return nil, nil
			}
			st, ok := out.structsByName[name]
			if !ok {
				return nil, errf(pr.line, pr.col, "protocol %q: unknown %s type %q", pr.name, prop, name)
			}
			return st, nil
		}
		var err error
		if p.Request, err = resolve("Request"); err != nil {
			return nil, err
		}
		if p.Response, err = resolve("Response"); err != nil {
			return nil, err
		}
		if p.Type == Asyn && p.Response != nil {
			return nil, errf(pr.line, pr.col, "protocol %q: asynchronous protocols cannot have a Response", pr.name)
		}
		for key := range pr.props {
			switch key {
			case "Type", "Request", "Response":
			default:
				return nil, errf(pr.line, pr.col, "protocol %q: unknown property %q", pr.name, key)
			}
		}
		out.Protocols = append(out.Protocols, p)
	}
	return out, nil
}

// validEdgeTypes are the TSL edge modeling modes (paper §4.2).
var validEdgeTypes = map[string]bool{
	"SimpleEdge": true, // edge is a bare cell ID
	"StructEdge": true, // edge is an independent cell
	"HyperEdge":  true, // edge cell holds a set of node IDs
}

func checkFieldAttrs(structs map[string]*astStruct, f astField) error {
	if et, ok := f.attrs["EdgeType"]; ok {
		if !validEdgeTypes[et] {
			return errf(f.line, f.col, "field %q: unknown EdgeType %q", f.name, et)
		}
		// Edges must be modeled as cell IDs (long or List<long>).
		t := f.typ
		if t.name == "List" {
			t = t.elem
		}
		if t.name != "long" {
			return errf(f.line, f.col, "field %q: EdgeType requires long or List<long>, got %s", f.name, f.typ.name)
		}
	}
	if rc, ok := f.attrs["ReferencedCell"]; ok {
		st, found := structs[rc]
		if !found {
			return errf(f.line, f.col, "field %q: ReferencedCell %q is not declared", f.name, rc)
		}
		if !st.isCell {
			return errf(f.line, f.col, "field %q: ReferencedCell %q is not a cell struct", f.name, rc)
		}
	}
	return nil
}

// MustCompile is Compile that panics on error, for static schemas in
// package initializers.
func MustCompile(src string) *Script {
	s, err := Compile(src)
	if err != nil {
		panic(fmt.Sprintf("tsl: %v", err))
	}
	return s
}
