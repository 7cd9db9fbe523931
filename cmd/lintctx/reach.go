package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// modulePath is the module's import-path prefix; benchmark/ is its own
// module but is named trinity/benchmark, so one prefix maps every
// directory under the reach roots to its import path.
const modulePath = "trinity"

// seamTag marks, in the doc comment of a function or type under
// internal/, API that exists so tests in other packages can inject
// faults or build fixtures. On a type it also covers the type's methods.
// Like //alloc:ok it must carry a reason.
const seamTag = "//reach:test-seam"

// errorsMethods are the optional methods package errors looks up through
// unexported interfaces, so no interface in any scope names them.
var errorsMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// loader type-checks the module's packages from their parsed non-test
// files, in import order, and hands everything else to the compiler's
// export data.
type loader struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
	ext   []*types.Package // packages from outside the module
}

func (l *loader) Import(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := l.files[p]
	if !ok {
		pkg, err := l.std.Import(p)
		if err == nil {
			l.pkgs[p] = pkg
			l.ext = append(l.ext, pkg)
		}
		return pkg, err
	}
	pkg, err := (&types.Config{Importer: l}).Check(p, l.fset, files, l.info)
	l.pkgs[p] = pkg
	return pkg, err
}

// typeCheck checks every package that has a file in files (rels is its
// sorted key set).
func typeCheck(fset *token.FileSet, files map[string]*ast.File, rels []string) (*loader, error) {
	ld := &loader{
		fset:  fset,
		files: make(map[string][]*ast.File),
		pkgs:  make(map[string]*types.Package),
		info:  &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)},
		std:   importer.Default(),
	}
	for _, rel := range rels {
		p := modulePath + "/" + path.Dir(rel)
		ld.files[p] = append(ld.files[p], files[rel])
	}
	for _, rel := range rels {
		if _, err := ld.Import(modulePath + "/" + path.Dir(rel)); err != nil {
			return nil, err
		}
	}
	return ld, nil
}

// references walks every declaration and returns the objects it uses,
// not counting a function's uses of itself or of its receiver type.
func references(info *types.Info, files map[string]*ast.File) map[types.Object]bool {
	reached := make(map[types.Object]bool)
	for _, file := range files {
		for _, d := range file.Decls {
			var self types.Object
			parts := []ast.Node{d}
			if fn, ok := d.(*ast.FuncDecl); ok {
				self = info.Defs[fn.Name]
				parts = []ast.Node{fn.Type}
				if fn.Body != nil {
					parts = append(parts, fn.Body)
				}
			}
			for _, part := range parts {
				ast.Inspect(part, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						o := info.Uses[id]
						if f, ok := o.(*types.Func); ok {
							o = f.Origin()
						}
						if o != nil && o != self {
							reached[o] = true
						}
					}
					return true
				})
			}
		}
	}
	return reached
}

// interfaceMethods indexes, by name, the interface methods a concrete
// method can be reached through: those non-test code calls, and those of
// every interface declared outside the module (sort.Interface, error).
func interfaceMethods(ext []*types.Package, reached map[types.Object]bool) map[string][]*types.Func {
	byName := make(map[string][]*types.Func)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				byName[m.Name()] = append(byName[m.Name()], m)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range ext {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	for o := range reached {
		if f, ok := o.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				byName[f.Name()] = append(byName[f.Name()], f)
			}
		}
	}
	return byName
}

// checkReach is check 4: every exported function, method and type under
// internal/ must be referenced by non-test code somewhere under the
// reach roots (files holds exactly that code, keyed by slash-separated
// path relative to the repo root), or be marked a test seam. A reference
// from a declaration's own body does not count. A method also counts as
// referenced when its type implements an interface through which
// non-test code calls that method name, or one declared outside the
// module (sort.Interface, error, ...).
func checkReach(fset *token.FileSet, files map[string]*ast.File) ([]violation, error) {
	rels := make([]string, 0, len(files))
	for rel := range files {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	ld, err := typeCheck(fset, files, rels)
	if err != nil {
		return nil, err
	}
	info := ld.info
	reached := references(info, files)
	ifaceMethods := interfaceMethods(ld.ext, reached)
	viaInterface := func(f *types.Func) bool {
		recv := f.Type().(*types.Signature).Recv().Type()
		for _, m := range ifaceMethods[f.Name()] {
			it := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var out []violation
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, violation{pos: fset.Position(pos), msg: fmt.Sprintf(format, args...)})
	}
	// seam reports whether doc carries the tag, flagging one without a reason.
	seam := func(doc *ast.CommentGroup) bool {
		if doc == nil {
			return false
		}
		for _, c := range doc.List {
			if rest, ok := strings.CutPrefix(c.Text, seamTag); ok {
				if strings.TrimSpace(rest) == "" {
					report(c.Pos(), "%s needs a reason", seamTag)
				}
				return true
			}
		}
		return false
	}
	seamTypes := make(map[types.Object]bool)
	// judge applies the rule to one exported declaration; own is the
	// declaration's own annotation.
	judge := func(rel string, id *ast.Ident, recvType types.Object, own bool) {
		key := path.Dir(rel) + "."
		if recvType != nil {
			key += recvType.Name() + "."
		}
		key += id.Name
		obj := info.Defs[id]
		live := reached[obj]
		if f, ok := obj.(*types.Func); ok && recvType != nil && !live {
			live = errorsMethods[id.Name] || viaInterface(f)
		}
		switch _, isType := obj.(*types.TypeName); {
		case live && own && !isType:
			report(id.Pos(), "%s has a non-test caller: drop its %s", key, seamTag)
		case !live && !own && !seamTypes[recvType]:
			report(id.Pos(), "exported %s has no reference from non-test code under cmd/, examples/, benchmark/ or internal/: delete it, or mark it %s <why>", key, seamTag)
		}
	}
	internal := rels[:0:0]
	for _, rel := range rels {
		if strings.HasPrefix(rel, "internal/") {
			internal = append(internal, rel)
		}
	}
	for _, rel := range internal { // types first: their tag covers their methods
		for _, d := range files[rel].Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				own := seam(ts.Doc) || (len(gd.Specs) == 1 && seam(gd.Doc))
				if own {
					seamTypes[info.Defs[ts.Name]] = true
				}
				if ts.Name.IsExported() {
					judge(rel, ts.Name, nil, own)
				}
			}
		}
	}
	for _, rel := range internal {
		for _, d := range files[rel].Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			var recvType types.Object
			if recv := info.Defs[fn.Name].Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				recvType = t.(*types.Named).Obj()
			}
			judge(rel, fn.Name, recvType, seam(fn.Doc))
		}
	}
	return out, nil
}
