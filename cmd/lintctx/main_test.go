package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// lintFixture parses an in-memory tree (slash-separated path relative to
// the repo root -> source) and returns the violation messages.
func lintFixture(t *testing.T, tree map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	files := make(map[string]*ast.File)
	for rel, src := range tree {
		f, err := parser.ParseFile(fset, rel, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files[rel] = f
	}
	vs, err := lint(fset, files)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, v := range vs {
		msgs = append(msgs, v.msg)
	}
	return msgs
}

// mainUsing is a cmd/ main package that references the given expressions,
// so fixtures for checks 1-3 stay clean under check 4.
func mainUsing(imports string, refs ...string) string {
	src := "package main\nimport (\n" + imports + "\n)\nfunc main() {\n"
	for _, r := range refs {
		src += "\t_ = " + r + "\n"
	}
	return src + "}\n"
}

func TestLint(t *testing.T) {
	cases := []struct {
		name string
		tree map[string]string
		want []string // one substring per expected violation, in position order
	}{
		{
			name: "check 1: time.After in a select is flagged",
			tree: map[string]string{"internal/a/a.go": `package a
import "time"
func wait(ch chan int) {
	select {
	case <-ch:
	case <-time.After(time.Second):
	}
}`},
			want: []string{"time.After inside select"},
		},
		{
			name: "check 1: a stopped timer, and time.After outside a select, pass",
			tree: map[string]string{"internal/a/a.go": `package a
import "time"
func wait(ch chan int) {
	tm := time.NewTimer(time.Second)
	defer tm.Stop()
	select {
	case <-ch:
	case <-tm.C:
	}
	<-time.After(time.Second)
}`},
		},
		{
			name: "check 2: exported blocking func without ctx is flagged",
			tree: map[string]string{
				"internal/msg/m.go": `package msg
func Recv(ch chan int) int { return <-ch }`,
				"cmd/x/main.go": mainUsing(`"trinity/internal/msg"`, "msg.Recv"),
			},
			want: []string{"exported blocking func Recv lacks a context.Context"},
		},
		{
			name: "check 2: ctx-first, teardown names and other packages pass",
			tree: map[string]string{
				"internal/msg/m.go": `package msg
import "context"
type Node struct{ done chan struct{} }
func Recv(ctx context.Context, ch chan int) int { return <-ch }
func (n *Node) Close() { <-n.done }
func spin(ch chan int) { <-ch }`,
				"internal/gen/g.go": `package gen
func Drain(ch chan int) { <-ch }`,
				"cmd/x/main.go": mainUsing(`"trinity/internal/msg"
"trinity/internal/gen"`, "msg.Recv", "(*msg.Node).Close", "gen.Drain"),
			},
		},
		{
			name: "check 3: unannotated make([]byte) on a hot path is flagged",
			tree: map[string]string{"internal/trunk/t.go": `package trunk
func grow(n int) []byte { return make([]byte, n) }`},
			want: []string{"make([]byte, ...) on a zero-copy hot path"},
		},
		{
			name: "check 3: annotated, non-byte and cold-package allocations pass",
			tree: map[string]string{
				"internal/trunk/t.go": `package trunk
func grow(n int) ([]byte, []int) {
	return make([]byte, n), make([]int, n) //alloc:ok cold path
}`,
				"internal/gen/g.go": `package gen
func grow(n int) []byte { return make([]byte, n) }`,
			},
		},
		{
			name: "check 4: an export only its own body references is dead",
			tree: map[string]string{
				"internal/a/a.go": `package a
func Live() {}
func Dead(n int) { if n > 0 { Dead(n - 1) } }
type Gone struct{}
func (Gone) Method() {}
func hidden() {}`,
				"cmd/x/main.go": mainUsing(`"trinity/internal/a"`, "a.Live"),
			},
			want: []string{"internal/a.Dead has no reference", "internal/a.Gone has no reference", "internal/a.Gone.Method has no reference"},
		},
		{
			name: "check 4: a reference from benchmark/ counts",
			tree: map[string]string{
				"internal/a/a.go": `package a
func Scored() {}`,
				"benchmark/main.go": mainUsing(`"trinity/internal/a"`, "a.Scored"),
			},
		},
		{
			name: "check 4: test seams need a reason, cover a type's methods, and go stale",
			tree: map[string]string{
				"internal/a/a.go": `package a

// Fail injects a fault.
//
//reach:test-seam fault injection for other packages' tests
func Fail() {}

//reach:test-seam
func Bare() {}

// Hub is a fixture.
//
//reach:test-seam fixture
type Hub struct{}

func (Hub) Cut() {}

//reach:test-seam no longer true
func Used() {}`,
				"cmd/x/main.go": mainUsing(`"trinity/internal/a"`, "a.Used"),
			},
			want: []string{"//reach:test-seam needs a reason", "internal/a.Used has a non-test caller: drop its //reach:test-seam"},
		},
		{
			name: "check 4: names in emitted templates and interface methods count as reached",
			tree: map[string]string{
				"internal/cell/c.go": `package cell
type Ref struct{}
func (Ref) SetBool(v bool) {}
func (Ref) SetNever(v bool) {}
type Store struct{}
func (Store) Get() int { return 0 }
func (Store) Put() {}
type Failure struct{}
func (Failure) Error() string { return "" }
func (Failure) Unwrap() error { return nil }`,
				"internal/tsl/codegen.go": `package tsl
const imports = "import (\n\t\"trinity/internal/cell\"\n)\n"
const setter = "func (a Accessor) Set(v bool) { a.ref.SetBool(v) }"`,
				"internal/b/b.go": `package b
type Getter interface{ Get() int }
func Use(g Getter) int { return g.Get() }`,
				"cmd/x/main.go": mainUsing(`"trinity/internal/cell"
"trinity/internal/b"`, "cell.Ref{}", "b.Use(cell.Store{})", "error(cell.Failure{})"),
			},
			want: []string{"internal/cell.Ref.SetNever has no reference", "internal/cell.Store.Put has no reference"},
		},
		{
			name: "check 4: a call in a template counts only for the packages the template imports",
			tree: map[string]string{
				"internal/cell/c.go": `package cell
type Ref struct{}
func (Ref) Send(v bool) {}`,
				"internal/eng/e.go": `package eng
type Context struct{}
func (Context) Send(v bool) {}`,
				"internal/tsl/codegen.go": `package tsl
import "trinity/internal/eng"
var _ eng.Context
const imports = "import \"trinity/internal/cell\"\n"
const body = "func f(r cell.Ref) { r.Send(true) }"`,
				"cmd/x/main.go": mainUsing(`"trinity/internal/cell"
"trinity/internal/eng"`, "cell.Ref{}", "eng.Context{}"),
			},
			want: []string{"internal/eng.Context.Send has no reference"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := lintFixture(t, c.tree)
			if len(got) != len(c.want) {
				t.Fatalf("violations = %q, want %d matching %q", got, len(c.want), c.want)
			}
			for i, w := range c.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("violation %d = %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}
}
