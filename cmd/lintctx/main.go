// Command lintctx enforces the repo's cancellation, allocation and
// reachability conventions with four checks over the internal/ tree
// (tests excluded):
//
//  1. No time.After inside a select statement anywhere under internal/.
//     time.After leaks its timer until it fires — in a select that has
//     another ready arm the timer outlives the wait by the full duration,
//     and a hot loop accumulates one live timer per iteration (the msg.Call
//     wait path had exactly this leak; BenchmarkCallTimerChurn guards the
//     fix). Use time.NewTimer with a deferred/explicit Stop instead.
//
//  2. Exported blocking functions in internal/msg, internal/memcloud and
//     internal/compute must take a context.Context as their first
//     parameter. "Blocking" is detected structurally: the body contains a
//     channel receive, a channel send, a select, or a *.Wait(...) call.
//     Lifecycle entry points that intentionally block without a context
//     (Close, Flush, ...) are allowlisted below; extend the list only for
//     teardown-shaped APIs, never for request-shaped ones.
//
//  3. No make([]byte, ...) on the designated hot paths (internal/trunk,
//     internal/msg, internal/memcloud and its batch/fetch/store
//     subpackages, internal/compute/bsp) unless the line carries an
//     `//alloc:ok <reason>` comment. These packages sit on the
//     zero-copy read path, the batched write path and the superstep
//     loop: per-frame and per-cell buffers come from the buf lease
//     pool, and an unannotated allocation is usually a regression that
//     silently re-introduces the GC churn the lease refactor removed.
//     Cold-path or deliberately caller-owned allocations get the
//     annotation with a reason.
//
//  4. Every exported function, method and type under internal/ is
//     referenced by non-test code under internal/, cmd/, examples/ or
//     benchmark/ — "the system" is what a binary can reach; code only a
//     test calls has traffic nobody measured. The one escape is greppable
//     and carries a reason: `//reach:test-seam <why>` in the doc comment
//     of fault-injection and fixture API that tests need. A method called
//     inside a string literal (the TSL generator's templates) counts only
//     if a string literal of the same file names its package's import
//     path, as a template that imports it must. Unlike checks
//     1-3 this one type-checks the tree (reach.go); it counts references,
//     not call paths, so a function kept alive only by another
//     unreferenced function surfaces once that one is deleted.
//
// Exit status is non-zero if any violation is found, so `make lint-ctx`
// can gate CI. The tool has no dependencies outside the standard library.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ctxPackages are the trees whose exported blocking APIs must be
// context-first. Paths are slash-separated prefixes relative to the repo
// root.
var ctxPackages = []string{
	"internal/msg",
	"internal/memcloud",
	"internal/compute",
}

// allocHotPackages are the trees where an unannotated make([]byte, ...)
// is flagged: the zero-copy read path, where buffers are supposed to come
// from the buf lease pool (or be appended into a caller-provided slice).
var allocHotPackages = []string{
	"internal/trunk",
	"internal/msg",
	"internal/memcloud",
	"internal/memcloud/batch",
	"internal/memcloud/fetch",
	"internal/memcloud/store",
	"internal/compute/bsp",
}

// allowNoCtx names exported functions that block by design without a
// context: lifecycle teardown and drain points where callers have no
// deadline to offer (Close tears down, Flush pushes buffered frames,
// Stop/Shutdown quiesce, Done exposes a channel, Run on long-lived
// servers owns its own lifetime). Request-shaped APIs never belong here.
var allowNoCtx = map[string]bool{
	"Close":    true,
	"Flush":    true,
	"Stop":     true,
	"Shutdown": true,
	"Drain":    true,
	"Done":     true,
	"Start":    true,
	"Serve":    true,
}

type violation struct {
	pos token.Position
	msg string
}

// reachRoots are the trees whose non-test code is "the system" for check
// 4: the library and every main package that links it. benchmark/ is a
// module of its own, invisible to ./..., but it is the scored caller.
var reachRoots = []string{"internal", "cmd", "examples", "benchmark"}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	fset := token.NewFileSet()
	files, err := parseTree(fset, root)
	var violations []violation
	if err == nil {
		violations, err = lint(fset, files)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lintctx:", err)
		os.Exit(2)
	}
	for _, v := range violations {
		fmt.Printf("%s: %s\n", v.pos, v.msg)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "lintctx: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
}

// parseTree parses every non-test Go file under the reach roots, keyed by
// slash-separated path relative to root.
func parseTree(fset *token.FileSet, root string) (map[string]*ast.File, error) {
	files := make(map[string]*ast.File)
	for _, dir := range reachRoots {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			files[filepath.ToSlash(rel)], err = parser.ParseFile(fset, path, nil, parser.ParseComments)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

// lint runs checks 1-3 on each file under internal/ and check 4 on the
// whole set, and returns the violations in position order.
func lint(fset *token.FileSet, files map[string]*ast.File) ([]violation, error) {
	var violations []violation
	for rel, file := range files {
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		violations = append(violations, checkTimeAfterInSelect(fset, file)...)
		if inCtxPackage(rel) {
			violations = append(violations, checkExportedBlocking(fset, file)...)
		}
		if inAllocPackage(rel) {
			violations = append(violations, checkHotPathAllocs(fset, file)...)
		}
	}
	reach, err := checkReach(fset, files)
	if err != nil {
		return nil, err
	}
	violations = append(violations, reach...)
	sort.Slice(violations, func(i, j int) bool {
		a, b := violations[i].pos, violations[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return violations, nil
}

func inCtxPackage(rel string) bool {
	for _, p := range ctxPackages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

func inAllocPackage(rel string) bool {
	dir := rel
	if i := strings.LastIndex(rel, "/"); i >= 0 {
		dir = rel[:i]
	}
	for _, p := range allocHotPackages {
		// Exact package match, not prefix: internal/memcloud is not a hot
		// package even though internal/memcloud/fetch is.
		if dir == p {
			return true
		}
	}
	return false
}

// checkHotPathAllocs flags make([]byte, ...) calls unless the line
// carries an `//alloc:ok <reason>` annotation.
func checkHotPathAllocs(fset *token.FileSet, file *ast.File) []violation {
	annotated := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "alloc:ok") {
				annotated[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	var out []violation
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "make" || len(call.Args) < 2 {
			return true
		}
		arr, ok := call.Args[0].(*ast.ArrayType)
		if !ok || arr.Len != nil {
			return true
		}
		elem, ok := arr.Elt.(*ast.Ident)
		if !ok || elem.Name != "byte" {
			return true
		}
		pos := fset.Position(call.Pos())
		if annotated[pos.Line] {
			return true
		}
		out = append(out, violation{
			pos: pos,
			msg: "make([]byte, ...) on a zero-copy hot path; use a buf.Lease (or annotate the line with //alloc:ok <reason>)",
		})
		return true
	})
	return out
}

// checkTimeAfterInSelect flags every time.After call that appears inside
// a select statement.
func checkTimeAfterInSelect(fset *token.FileSet, file *ast.File) []violation {
	var out []violation
	var selectDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			selectDepth++
			ast.Inspect(n.Body, walk)
			selectDepth--
			return false
		case *ast.CallExpr:
			if selectDepth > 0 && isPkgCall(n, "time", "After") {
				out = append(out, violation{
					pos: fset.Position(n.Pos()),
					msg: "time.After inside select leaks its timer until it fires; use time.NewTimer + Stop",
				})
			}
		}
		return true
	}
	ast.Inspect(file, walk)
	return out
}

// checkExportedBlocking flags exported functions whose body blocks on
// channels but whose first parameter is not a context.Context.
func checkExportedBlocking(fset *token.FileSet, file *ast.File) []violation {
	var out []violation
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !fn.Name.IsExported() || allowNoCtx[fn.Name.Name] {
			continue
		}
		if fn.Recv != nil && !exportedRecv(fn.Recv) {
			continue // method on an unexported type: not API surface
		}
		if firstParamIsContext(fn.Type) || !bodyBlocks(fn.Body) {
			continue
		}
		out = append(out, violation{
			pos: fset.Position(fn.Pos()),
			msg: fmt.Sprintf("exported blocking func %s lacks a context.Context first parameter", fn.Name.Name),
		})
	}
	return out
}

func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

func firstParamIsContext(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	sel, ok := ft.Params.List[0].Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context" && sel.Sel.Name == "Context"
}

// bodyBlocks reports whether the function body itself contains a channel
// receive, channel send, select statement, or a *.Wait(...) call —
// the structural signatures of an unbounded wait. Function literals
// inside the body are skipped: a goroutine the function launches blocks
// on its own time, not the caller's.
func bodyBlocks(body *ast.BlockStmt) bool {
	blocks := false
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if blocks {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				blocks = true
			}
		case *ast.SendStmt:
			blocks = true
		case *ast.SelectStmt:
			blocks = true
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				blocks = true
			}
		}
		return !blocks
	}
	ast.Inspect(body, walk)
	return blocks
}

func isPkgCall(call *ast.CallExpr, pkg, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == name
}
