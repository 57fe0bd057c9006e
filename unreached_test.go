package cagmres

// The reachability gate (`make unreached`, DESIGN.md "The gates"): code
// nothing reaches is deleted rather than maintained. The module's non-test
// files are type-checked with go/types — the standard library from source,
// so the gate needs nothing beyond the toolchain — and every top-level
// declaration under internal/ that no root reaches fails the test, with its
// position and size. So does every exported struct field under internal/
// that no non-test code writes: a knob nothing sets is one value in use,
// and the branches only its other values ran are as dead as a declaration
// nothing calls.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// oracles are the declarations under internal/ that only tests reach and
// that stay: reference implementations, checkers and read-backs the tests
// hold live code against, kept beside what they check. A key is the name
// the gate reports (pkg.Name or pkg.Recv.Name); the value says what it is
// for. What an oracle calls is reached through it and needs no entry.
var oracles = map[string]string{
	"gpu.Context.SerialTime":        "the barrier schedule's clock, which the overlapped clock must never exceed",
	"graph.Hypergraph.Connectivity": "the exact SpMV communication volume the hypergraph partitioner is checked against",
	"graph.IsPermutation":           "checks that RCM and the partition orderings are permutations",
	"la.Dense.Equalish":             "the element-wise comparison the factorization tests hold results to",
	"la.Dense.MaxAbs":               "scales the tolerance of the Equalish comparisons",
	"la.GramCond2":                  "the condition number the generated tall-skinny panels are checked to have",
	"la.HessenbergLS":               "the batch least-squares solve GivensQR's incremental one is held to",
	"la.InvertUpper":                "the explicit inverse the triangular solves are checked against",
	"la.QRLeastSquares":             "the Householder least-squares solve HessenbergLS is held to",
	"matgen.PaperSet":               "the four paper analogues the generator and BFS tests sweep",
	"obs.Gauge.Value":               "reads a gauge back, so tests check what the bridges wrote",
	"obs.Histogram.Count":           "reads a histogram's count back, so tests check what was observed",
	"obs.Histogram.Sum":             "reads a histogram's sum back, so tests check what was observed",
	"obs.MultiSink":                 "tees one telemetry stream into two sinks in the telemetry fence",
	"obs.ReconcileDeviceLanes":      "checks a stitched trace's device lanes against the ledger exactly",
	"sparse.CSR.ExtractRows":        "with RelabelCols, the stepwise reference of what SELLOfRows fuses",
	"sparse.CSR.RelabelCols":        "with ExtractRows, the stepwise reference of what SELLOfRows fuses",
	"sparse.CSR.Row":                "the row view through which six packages' tests read matrices",
	"sparse.CSR.Transpose":          "checks generated and permuted matrices for structural symmetry",
	"sparse.ELL.ToCSR":              "the round trip the ELLPACK conversion is checked by",
	"sparse.RowNorms":               "checks that Balance equilibrates the rows",
	"sparse.SELL.PadRatio":          "the padding make bench-kernels reports and the SELL-vs-ELL tests bound",
	"sparse.SELL.ToCSR":             "the round trip the SELL-C builders are checked by",
}

func TestUnreached(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		got, unset, err := unreached(filepath.Join("testdata", "unreached"), map[string]string{
			"alpha.Reference": "the sum the fixture's live code is checked against",
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{
			"alpha.Stats.Merge internal/alpha/alpha.go:12 (4 lines)",
			"alpha.addInto internal/alpha/alpha.go:16 (1 lines)",
			"alpha.Kind.Label internal/alpha/alpha.go:29 (2 lines)",
			"alpha.limit internal/alpha/alpha.go:76 (2 lines)",
			"beta.All internal/beta/beta.go:5 (2 lines)",
			"beta.orphan internal/beta/beta.go:8 (2 lines)",
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("fixture report:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		wantUnset := []string{
			"alpha.Square.Side internal/alpha/alpha.go:35",
			"alpha.Config.Mode internal/alpha/config.go:15",
			"alpha.Config.Unset internal/alpha/config.go:16",
		}
		if strings.Join(unset, "\n") != strings.Join(wantUnset, "\n") {
			t.Errorf("fixture field report:\n%s\nwant:\n%s", strings.Join(unset, "\n"), strings.Join(wantUnset, "\n"))
		}
	})
	t.Run("module", func(t *testing.T) {
		got, unset, err := unreached(".", oracles)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range got {
			t.Errorf("unreached: %s", line)
		}
		if len(got) > 0 {
			t.Errorf("nothing reaches these %d declarations: delete each, move it into a _test.go file, or name it in oracles with the reason tests need it", len(got))
		}
		for _, line := range unset {
			t.Errorf("unset: %s", line)
		}
		if len(unset) > 0 {
			t.Errorf("no non-test code writes these %d fields: each has one value in use, so make it a constant and delete what its other values ran", len(unset))
		}
	})
}

// decl is one top-level declaration of the module.
type decl struct {
	name  string // pkg.Name or pkg.Recv.Name
	pos   token.Position
	lines int // from its doc comment to its end
	uses  []types.Object
}

// unreached type-checks the non-test files of the module in dir and
// returns every top-level func, method, type, const and var under its
// internal/ tree that no root reaches, sorted by position, and every field
// that unset names (see there). The roots are
// each main function, the exported API of the module's root package, init
// functions, package-level var initialisers that call a function, blank
// `var _ = …` declarations (interface assertions among them), and the
// named oracles. A use is a types.Info.Uses entry of a non-test file, so a
// namesake in another package or on another type never counts. A method
// of a reached type is reached when the type or a pointer to it implements
// an interface that has the method — any interface of a loaded package,
// the standard library's and the universe's error included. An oracle
// must name a declaration that nothing else reaches.
func unreached(dir string, oracles map[string]string) (report, unset []string, err error) {
	pkgs, err := goList(dir)
	if err != nil {
		return nil, nil, err
	}
	// The standard library is type-checked from source without cgo: only
	// its declarations matter here, and the pure-Go files declare them all.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	imp := moduleImporter{std: importer.ForCompiler(fset, "source", nil), mod: map[string]*types.Package{}}

	var modPath, modDir string
	decls := map[types.Object]*decl{}
	byName := map[string]types.Object{}
	var roots []types.Object
	var ifaces []*types.Interface
	written := map[*types.Var]bool{}
	for _, lp := range pkgs {
		if lp.Module == nil || !lp.Module.Main {
			continue
		}
		modPath, modDir = lp.Module.Path, lp.Module.Dir
		var files []*ast.File
		for _, f := range lp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(lp.Dir, f), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, err
			}
			files = append(files, af)
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, nil, err
		}
		imp.mod[lp.ImportPath] = pkg
		fieldWrites(files, info, written)
		for e, tv := range info.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				ifaces = append(ifaces, tv.Type.(*types.Interface))
			}
		}
		api := lp.ImportPath == lp.Module.Path
		for _, f := range files {
			for _, d := range f.Decls {
				for _, u := range units(d, info) {
					uses := usesIn(u.node, info)
					lines := fset.Position(u.node.End()).Line - fset.Position(u.doc).Line + 1
					for _, id := range u.names {
						obj := info.Defs[id]
						if obj == nil || id.Name == "_" || (u.fn && u.recv == "" && id.Name == "init") {
							// It runs, or is checked, with no name to reach it by.
							roots = append(roots, uses...)
							continue
						}
						d := &decl{name: lp.Name + "." + id.Name, pos: fset.Position(id.Pos()), lines: lines, uses: uses}
						if u.recv != "" {
							d.name = lp.Name + "." + u.recv + "." + id.Name
						}
						if c, ok := obj.(*types.Const); ok {
							// An iota constant that repeats its group's
							// type names no identifier of its own.
							if n, ok := c.Type().(*types.Named); ok {
								d.uses = append(uses[:len(uses):len(uses)], n.Obj())
							}
						}
						decls[obj], byName[d.name] = d, obj
						if u.root || (api && exported(obj)) || (lp.Name == "main" && u.fn && u.recv == "" && id.Name == "main") {
							roots = append(roots, obj)
						}
					}
				}
			}
		}
	}
	if modPath == "" {
		return nil, nil, fmt.Errorf("%s: go list found no package of the main module", dir)
	}

	// Every interface a reached type's method might satisfy, by method name.
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range imp.mod {
		walk(p)
	}
	methodIfaces := map[string][]*types.Interface{}
	for _, it := range ifaces {
		if !it.IsMethodSet() {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			methodIfaces[it.Method(i).Name()] = append(methodIfaces[it.Method(i).Name()], it)
		}
	}

	live := map[types.Object]bool{}
	var work []types.Object
	mark := func(objs ...types.Object) {
		for _, o := range objs {
			if _, ok := decls[o]; ok && !live[o] {
				live[o] = true
				work = append(work, o)
			}
		}
	}
	reach := func() {
		for len(work) > 0 {
			o := work[len(work)-1]
			work = work[:len(work)-1]
			mark(decls[o].uses...)
			if tn, ok := o.(*types.TypeName); ok {
				mark(viaInterface(tn, methodIfaces)...)
			}
		}
	}
	mark(roots...)
	reach()

	var errs []string
	for name := range oracles {
		switch obj, ok := byName[name]; {
		case !ok:
			errs = append(errs, "oracle "+name+" names no declaration")
		case live[obj]:
			errs = append(errs, "oracle "+name+" is reached without its name: drop it from the oracles")
		default:
			mark(obj)
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return nil, nil, fmt.Errorf("%s", strings.Join(errs, "\n"))
	}
	reach()

	var dead []*decl
	for obj, d := range decls {
		if !live[obj] && strings.HasPrefix(obj.Pkg().Path(), modPath+"/internal/") {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	rel := func(pos token.Position) string {
		r, err := filepath.Rel(modDir, pos.Filename)
		if err != nil {
			r = pos.Filename
		}
		return fmt.Sprintf("%s:%d", filepath.ToSlash(r), pos.Line)
	}
	for _, d := range dead {
		report = append(report, fmt.Sprintf("%s %s (%d lines)", d.name, rel(d.pos), d.lines))
	}
	for _, f := range unsetFields(fset, imp.mod, modPath+"/internal/", written) {
		unset = append(unset, f.name+" "+rel(f.pos))
	}
	return report, unset, nil
}

// fieldWrites marks in written every struct field that the files write:
// as a composite literal's key or by its position in one, on the left of
// an assignment (a multi-value one or a range clause's included), under &
// (how flags bind) and under ++ or --. A write through a nested selector,
// an index or a dereference counts for every field on its path, so
// `&rc.Breaker.Threshold` writes both Breaker and Threshold.
func fieldWrites(files []*ast.File, info *types.Info, written map[*types.Var]bool) {
	path := func(e ast.Expr) {
		for e != nil {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
					written[s.Obj().(*types.Var).Origin()] = true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							written[v.Origin()] = true
						}
					} else {
						written[st.Field(i).Origin()] = true
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					path(l)
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					path(n.Key)
					path(n.Value)
				}
			case *ast.IncDecStmt:
				path(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					path(n.X)
				}
			}
			return true
		})
	}
}

// field is one exported struct field the gate checks.
type field struct {
	name string // pkg.Type.Field
	pos  token.Position
}

// unsetFields is every exported, non-embedded field of a package-level
// struct type in the packages under prefix that nothing in written names,
// sorted by position. A field with a json tag is exempt: its struct is
// decoded from JSON, which writes it without naming it.
func unsetFields(fset *token.FileSet, pkgs map[string]*types.Package, prefix string, written map[*types.Var]bool) []field {
	var out []field
	for path, p := range pkgs {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		for _, n := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); !v.Exported() || v.Embedded() || tagged || written[v] {
					continue
				}
				out = append(out, field{p.Name() + "." + n + "." + v.Name(), fset.Position(v.Pos())})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}

// listedPackage is the part of a `go list -json` record the gate reads.
type listedPackage struct {
	ImportPath, Dir, Name string
	GoFiles               []string
	Module                *struct {
		Path, Dir string
		Main      bool
	}
}

// goList lists the packages of the module in dir and their dependencies,
// each after the packages it imports.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// moduleImporter hands out the module's packages as they were checked and
// type-checks the standard library from source.
type moduleImporter struct {
	std types.Importer
	mod map[string]*types.Package
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.mod[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// unit is one declaring piece of a top-level declaration: a function, a
// method, or one spec of a type, const or var declaration.
type unit struct {
	node  ast.Node
	doc   token.Pos // where its lines start: its doc comment, if any
	names []*ast.Ident
	recv  string // the receiver's base type name, for a method
	fn    bool
	root  bool // a var initialiser that calls a function
}

// units splits a top-level declaration into its units; imports have none.
func units(d ast.Decl, info *types.Info) []unit {
	switch d := d.(type) {
	case *ast.FuncDecl:
		u := unit{node: d, doc: d.Pos(), names: []*ast.Ident{d.Name}, fn: true}
		if d.Doc != nil {
			u.doc = d.Doc.Pos()
		}
		if d.Recv != nil {
			u.recv = recvName(d.Recv.List[0].Type)
		}
		return []unit{u}
	case *ast.GenDecl:
		var us []unit
		for _, s := range d.Specs {
			u := unit{node: s, doc: s.Pos()}
			var doc *ast.CommentGroup
			switch s := s.(type) {
			case *ast.TypeSpec:
				u.names, doc = []*ast.Ident{s.Name}, s.Doc
			case *ast.ValueSpec:
				u.names, doc = s.Names, s.Doc
				u.root = d.Tok == token.VAR && calls(s, info)
			default:
				continue
			}
			if d.Lparen == token.NoPos {
				// An ungrouped declaration: its keyword and doc are its own.
				u.node, u.doc, doc = d, d.Pos(), d.Doc
			}
			if doc != nil {
				u.doc = doc.Pos()
			}
			us = append(us, u)
		}
		return us
	}
	return nil
}

// recvName is the base type name of a receiver: T of T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// calls reports whether a var spec's initialiser calls a function, which
// runs at package initialisation; a conversion is no call.
func calls(s *ast.ValueSpec, info *types.Info) bool {
	found := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				found = !info.Types[n.Fun].IsType()
			case *ast.FuncLit:
				return false
			}
			return !found
		})
	}
	return found
}

// usesIn is every object an identifier inside n uses, generic instances
// mapped to their origin.
func usesIn(n ast.Node, info *types.Info) []types.Object {
	var objs []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch o := info.Uses[id].(type) {
			case nil:
			case *types.Func:
				objs = append(objs, o.Origin())
			case *types.Var:
				objs = append(objs, o.Origin())
			default:
				objs = append(objs, o)
			}
		}
		return true
	})
	return objs
}

// viaInterface is each method of tn (or promoted into it) that some
// interface with that method name has *tn implement.
func viaInterface(tn *types.TypeName, byMethod map[string][]*types.Interface) []types.Object {
	n, ok := tn.Type().(*types.Named)
	if !ok || types.IsInterface(n) {
		return nil
	}
	if n.TypeParams().Len() > 0 {
		// An uninstantiated generic type implements nothing; keep every
		// method an interface could name.
		var objs []types.Object
		for i := 0; i < n.NumMethods(); i++ {
			if len(byMethod[n.Method(i).Name()]) > 0 {
				objs = append(objs, n.Method(i))
			}
		}
		return objs
	}
	ptr := types.NewPointer(n)
	ms := types.NewMethodSet(ptr)
	var objs []types.Object
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj().(*types.Func)
		for _, it := range byMethod[m.Name()] {
			if types.Implements(ptr, it) {
				objs = append(objs, m.Origin())
				break
			}
		}
	}
	return objs
}

// exported reports whether obj is part of its package's API: an exported
// name, and for a method an exported receiver type.
func exported(obj types.Object) bool {
	if !obj.Exported() {
		return false
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Exported()
			}
		}
	}
	return true
}
