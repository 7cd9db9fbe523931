package tsl

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"trinity/internal/cell"
)

// paperScript is the movie/actor example from Figure 4 of the paper plus
// the Echo protocol from Figure 5.
const paperScript = `
[CellType: NodeCell]
cell struct Movie
{
	string Name;
	[EdgeType: SimpleEdge, ReferencedCell: Actor]
	List<long> Actors;
}

[CellType: NodeCell]
cell struct Actor
{
	string Name;
	[EdgeType: SimpleEdge, ReferencedCell: Movie]
	List<long> Movies;
}

struct MyMessage
{
	string Text;
}

protocol Echo
{
	Type: Syn;
	Request: MyMessage;
	Response: MyMessage;
}
`

// protocolNamed returns the script's protocol with the given name, or nil.
func protocolNamed(s *Script, name string) *Protocol {
	for _, p := range s.Protocols {
		if p.Name == name {
			return p
		}
	}
	return nil
}

func TestCompilePaperExample(t *testing.T) {
	s, err := Compile(paperScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Structs) != 3 {
		t.Fatalf("structs = %d, want 3", len(s.Structs))
	}
	movie := s.Struct("Movie")
	if movie == nil || !movie.Cell {
		t.Fatal("Movie missing or not a cell struct")
	}
	if movie.Attrs["CellType"] != "NodeCell" {
		t.Fatalf("Movie attrs = %v", movie.Attrs)
	}
	actors := movie.Fields[movie.FieldIndex("Actors")]
	if actors.Type.Kind != cell.KindList || actors.Type.Elem.Kind != cell.KindLong {
		t.Fatalf("Actors type = %v", actors.Type)
	}
	if actors.Attrs["EdgeType"] != "SimpleEdge" || actors.Attrs["ReferencedCell"] != "Actor" {
		t.Fatalf("Actors attrs = %v", actors.Attrs)
	}
	if s.Struct("MyMessage").Cell {
		t.Fatal("MyMessage should not be a cell struct")
	}
	if len(s.CellStructs()) != 2 {
		t.Fatalf("cell structs = %d, want 2", len(s.CellStructs()))
	}
	echo := protocolNamed(s, "Echo")
	if echo == nil {
		t.Fatal("Echo protocol missing")
	}
	if echo.Type != Syn || echo.Request.Name != "MyMessage" || echo.Response.Name != "MyMessage" {
		t.Fatalf("Echo = %+v", echo)
	}
	if echo.ID != ProtoUserBase {
		t.Fatalf("Echo ID = %d", echo.ID)
	}
}

func TestCompileAllTypes(t *testing.T) {
	s, err := Compile(`
struct Inner { int X; double Y; }
cell struct Big {
	byte B;
	bool Flag;
	int I;
	long L;
	float F;
	double D;
	string S;
	Inner Nested;
	List<string> Names;
	List<Inner> Inners;
	List<List<long>> Matrix;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	big := s.Struct("Big")
	matrix := big.Fields[big.FieldIndex("Matrix")]
	if matrix.Type.Elem.Elem.Kind != cell.KindLong {
		t.Fatalf("Matrix = %v", matrix.Type)
	}
	nested := big.Fields[big.FieldIndex("Nested")]
	if nested.Type.Kind != cell.KindStruct || nested.Type.Struct.Name != "Inner" {
		t.Fatalf("Nested = %v", nested.Type)
	}
}

func TestForwardReference(t *testing.T) {
	_, err := Compile(`
cell struct A { [ReferencedCell: B] List<long> Bs; }
cell struct B { long X; }
`)
	if err != nil {
		t.Fatalf("forward reference rejected: %v", err)
	}
}

func TestAsyncProtocol(t *testing.T) {
	s, err := Compile(`
struct Ping { long Seq; }
protocol Notify { Type: Asyn; Request: Ping; }
protocol Empty { Type: Asyn; }
`)
	if err != nil {
		t.Fatal(err)
	}
	if protocolNamed(s, "Notify").Type != Asyn {
		t.Fatal("Notify should be async")
	}
	if protocolNamed(s, "Empty").Request != nil {
		t.Fatal("Empty should have void request")
	}
	if protocolNamed(s, "Notify").ID != ProtoUserBase || protocolNamed(s, "Empty").ID != ProtoUserBase+1 {
		t.Fatal("protocol IDs not sequential")
	}
}

func TestVoidResponse(t *testing.T) {
	s, err := Compile(`
struct Cmd { int Op; }
protocol Exec { Type: Syn; Request: Cmd; Response: void; }
`)
	if err != nil {
		t.Fatal(err)
	}
	if protocolNamed(s, "Exec").Response != nil {
		t.Fatal("void response should be nil")
	}
}

func TestComments(t *testing.T) {
	_, err := Compile(`
// a line comment
/* a block
   comment */
cell struct A { long X; /* trailing */ } // done
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown type", `cell struct A { Wat X; }`, "unknown type"},
		{"duplicate struct", `struct A { int X; } struct A { int Y; }`, "duplicate struct"},
		{"duplicate field", `struct A { int X; int X; }`, "duplicate field"},
		{"cycle", `struct A { B Inner; } struct B { A Inner; }`, "cycle"},
		{"self cycle", `struct A { A Inner; }`, "cycle"},
		{"list cycle", `struct A { List<A> Kids; }`, "cycle"},
		{"shadow builtin", `struct long { int X; }`, "shadows a built-in"},
		{"bad edge type", `cell struct A { [EdgeType: Wavy] List<long> E; }`, "unknown EdgeType"},
		{"edge not long", `cell struct A { [EdgeType: SimpleEdge] List<int> E; }`, "requires long"},
		{"bad referenced cell", `cell struct A { [ReferencedCell: Nope] List<long> E; }`, "not declared"},
		{"ref non-cell", `struct P { int X; } cell struct A { [ReferencedCell: P] List<long> E; }`, "not a cell struct"},
		{"protocol no type", `protocol P { }`, "missing Type"},
		{"protocol bad type", `protocol P { Type: Maybe; }`, "must be Syn or Asyn"},
		{"protocol unknown req", `protocol P { Type: Syn; Request: Nope; }`, "unknown Request"},
		{"async with response", `struct M { int X; } protocol P { Type: Asyn; Request: M; Response: M; }`, "cannot have a Response"},
		{"protocol dup", `protocol P { Type: Syn; } protocol P { Type: Syn; }`, "duplicate protocol"},
		{"protocol bad prop", `protocol P { Type: Syn; Wat: X; }`, "unknown property"},
		{"missing semicolon", `struct A { int X }`, "expected"},
		{"unterminated comment", `/* nope`, "unterminated block comment"},
		{"unterminated string", `struct A { [X: "nope] int Y; }`, "unterminated string"},
		{"garbage", `#!/bin/sh`, "unexpected character"},
		{"attr on protocol", `[X] protocol P { Type: Syn; }`, "cannot have attributes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil {
				t.Fatalf("compiled without error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Compile("\n\ncell struct A { Wat X; }")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "tsl:3:") {
		t.Fatalf("error lacks line info: %v", err)
	}
}

func TestRuntimeSchemaMatchesAccessor(t *testing.T) {
	// The compiled schema must drive the dynamic accessor correctly.
	s := MustCompile(paperScript)
	movie := s.Struct("Movie")
	blob, err := cell.Encode(movie, map[string]cell.Value{
		"Name":   "Inception",
		"Actors": []int64{7, 8, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := cell.NewAccessor(movie, blob)
	if a.MustField("Name").Str() != "Inception" {
		t.Fatal("Name mismatch")
	}
	if got := a.MustField("Actors").List().Longs(); len(got) != 3 || got[2] != 9 {
		t.Fatalf("Actors = %v", got)
	}
}

func TestGenerateStructure(t *testing.T) {
	s := MustCompile(paperScript)
	src, err := Generate("moviegraph", paperScript, s)
	if err != nil {
		t.Fatal(err)
	}
	code := string(src)
	for _, want := range []string{
		"package moviegraph",
		"type Movie struct {",
		"type Actor struct {",
		"type MyMessage struct {",
		"func (x *Movie) Marshal() []byte",
		"func (x *Movie) Unmarshal(b []byte) error",
		"type MovieAccessor struct",
		"func LoadMovie(ctx context.Context, s *memcloud.Slave, id uint64) (*Movie, error)",
		"func (x *Movie) Save(ctx context.Context, s *memcloud.Slave, id uint64) error",
		"func UseMovie(s *memcloud.Slave, id uint64, fn func(MovieAccessor) error) error",
		"const EchoID msg.ProtocolID",
		"func CallEcho(ctx context.Context, n *msg.Node, to msg.MachineID, req *MyMessage) (*MyMessage, error)",
		"func RegisterEcho(n *msg.Node, h func(context.Context, msg.MachineID, *MyMessage) (*MyMessage, error))",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
	// No accessor setters for variable-size fields.
	if strings.Contains(code, "SetName") {
		t.Error("generated a setter for a string field")
	}
}

// TestMoviesExampleIsGenerated pins examples/movies/schema_gen.go to what
// tslc emits for its schema today, so a codegen change cannot leave the
// one generated program (and its UseMovie in-place writer) stale.
func TestMoviesExampleIsGenerated(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "movies")
	src, err := os.ReadFile(filepath.Join(dir, "schema.tsl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "schema_gen.go"))
	if err != nil {
		t.Fatal(err)
	}
	script, err := Compile(string(src))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Generate("main", string(src), script)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("examples/movies/schema_gen.go is stale; regenerate with " +
			"go run ./cmd/tslc -o examples/movies/schema_gen.go examples/movies/schema.tsl")
	}
}

func TestGenerateAsyncStubs(t *testing.T) {
	src := `
struct Ping { long Seq; }
protocol Notify { Type: Asyn; Request: Ping; }
`
	s := MustCompile(src)
	code, err := Generate("p", src, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"func SendNotify(n *msg.Node, to msg.MachineID, req *Ping) error",
		"func RegisterNotify(n *msg.Node, h func(msg.MachineID, *Ping))",
	} {
		if !strings.Contains(string(code), want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

// TestGeneratedCodeCompilesAndRoundTrips writes generated code into a
// throwaway package inside this module, compiles it with the real Go
// toolchain, and runs a marshal/accessor round trip through it.
func TestGeneratedCodeCompilesAndRoundTrips(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Skipf("module root not found: %v", err)
	}
	script := `
struct Inner { int X; }
cell struct Thing {
	string Name;
	long Id;
	double W;
	Inner Nested;
	List<string> Tags;
	List<long> Links;
}
protocol Ask { Type: Syn; Request: Thing; Response: Thing; }
protocol Tell { Type: Asyn; Request: Thing; }
`
	s := MustCompile(script)
	code, err := Generate("tslgentest", script, s)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "tsl", "tslgentest_tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "gen.go"), code, 0o644); err != nil {
		t.Fatal(err)
	}
	// A main-less test program exercising the generated API end to end.
	harness := `package tslgentest

import "fmt"

// RoundTrip exercises Marshal/Unmarshal and the accessor on one value.
func RoundTrip() error {
	in := &Thing{
		Name:   "t1",
		Id:     42,
		W:      2.5,
		Nested: Inner{X: -7},
		Tags:   []string{"a", "bb"},
		Links:  []int64{1, 2, 3},
	}
	blob := in.Marshal()
	out := new(Thing)
	if err := out.Unmarshal(blob); err != nil {
		return err
	}
	if out.Name != in.Name || out.Id != in.Id || out.W != in.W ||
		out.Nested.X != in.Nested.X || len(out.Tags) != 2 || out.Tags[1] != "bb" ||
		len(out.Links) != 3 || out.Links[2] != 3 {
		return fmt.Errorf("round trip mismatch: %+v", out)
	}
	a := NewThingAccessor(blob)
	if a.Name() != "t1" || a.Id() != 42 || a.Nested().X() != -7 {
		return fmt.Errorf("accessor mismatch")
	}
	a.SetId(99)
	if a.Id() != 99 {
		return fmt.Errorf("accessor write lost")
	}
	if a.Links().Len() != 3 || a.Links().At(0).Long() != 1 {
		return fmt.Errorf("list accessor mismatch")
	}
	return nil
}
`
	if err := os.WriteFile(filepath.Join(dir, "harness.go"), []byte(harness), 0o644); err != nil {
		t.Fatal(err)
	}
	testFile := `package tslgentest

import "testing"

func TestRoundTrip(t *testing.T) {
	if err := RoundTrip(); err != nil {
		t.Fatal(err)
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "gen_test.go"), []byte(testFile), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "test", "./internal/tsl/tslgentest_tmp/")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("generated code failed: %v\n%s", err, out)
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Compile(paperScript); err != nil {
			b.Fatal(err)
		}
	}
}
