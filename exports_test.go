package mcio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryExportHasACaller type-checks the root and benchmark modules, test
// builds included, and fails for each exported package-level function,
// method, constant, variable or type under internal/ that nothing uses but
// its own package's tests. A user is program code (the root package, cmd/,
// examples/, internal/ and the benchmark module) or another package's
// tests; a use inside the export's own declaration does not count, nor
// does a method's receiver count as a use of its type. Exempt
// are methods that implement an interface declaring their name (a call
// through the interface names no method) and methods of the types the root
// package aliases (public API).
//
// go list -test lists the builds of each package's tests: the package with
// its _test.go files, its external test package, and every module package
// that imports it rebuilt against that version. All of them are checked as
// listed; a use in them counts unless the export belongs to the package
// under test.
func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	listed := append(goList(t, root), goList(t, filepath.Join(root, "benchmark"))...)

	exportData := map[string]string{}
	for _, p := range listed {
		if p.Standard && p.Export != "" {
			exportData[p.ImportPath] = p.Export
		}
	}
	s := &exportScan{
		fset:    token.NewFileSet(),
		checked: map[string]*types.Package{},
		decls:   map[types.Object]exportDecl{},
	}
	s.gc = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exportData[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})

	// go list -deps lists a package after everything it imports.
	var program []*types.Info
	used := map[string]bool{}
	for _, p := range listed {
		if p.Standard || strings.HasSuffix(p.ImportPath, ".test") || s.checked[p.ImportPath] != nil {
			continue
		}
		pkg, info, files, err := s.check(p)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		s.checked[p.ImportPath] = pkg
		if p.ForTest == "" {
			program = append(program, info)
			s.record(pkg, info, files)
		}
		own := ownSpans(info, files)
		recv := receiverTypes(files)
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if !packageLevel(obj) || obj.Pkg().Path() == p.ForTest || recv[id] {
				continue
			}
			if b, ok := own[obj]; ok && id.Pos() >= b[0] && id.Pos() < b[1] {
				continue
			}
			used[objKey(obj)] = true
		}
	}

	aliased := aliasedTypes(s.checked["mcio"])
	ifaces := interfaces(s.checked, program)
	var offenders []string
	for obj, d := range s.decls {
		if used[d.key] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			if named := receiverNamed(fn); named != nil && (aliased[named.Obj()] || implements(named, fn.Name(), ifaces)) {
				continue
			}
		}
		pos := s.fset.Position(d.pos)
		rel, _ := filepath.Rel(root, pos.Filename)
		offenders = append(offenders, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), pos.Line, d.name))
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s has no user outside its own package's tests", o)
	}
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	Dir, ImportPath, Export, ForTest string
	Standard                         bool
	GoFiles                          []string
	ImportMap                        map[string]string
}

// goList lists the module in dir, its test builds and its dependencies,
// with the export data of each standard-library package.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-test", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// exportDecl is an exported package-level object: its key and its name
// and position for the report.
type exportDecl struct {
	key, name string
	pos       token.Pos
}

type exportScan struct {
	fset    *token.FileSet
	gc      types.Importer
	checked map[string]*types.Package   // by listed import path, test builds included
	decls   map[types.Object]exportDecl // exported under internal/, program builds only
}

// check parses and type-checks one listed package, resolving its imports
// to the builds go list names for it.
func (s *exportScan) check(p listedPackage) (*types.Package, *types.Info, []*ast.File, error) {
	var files []*ast.File
	for _, n := range p.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	var errs []error
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped
			}
			if pkg, ok := s.checked[path]; ok {
				return pkg, nil
			}
			return s.gc.Import(path)
		}),
		Error: func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	path, _, _ := strings.Cut(p.ImportPath, " ")
	pkg, _ := conf.Check(path, s.fset, files, info)
	return pkg, info, files, errors.Join(errs...)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// record notes every exported package-level object and method a package
// under internal/ declares.
func (s *exportScan) record(pkg *types.Package, info *types.Info, files []*ast.File) {
	if !strings.HasPrefix(pkg.Path(), "mcio/internal/") {
		return
	}
	for _, f := range files {
		for _, d := range f.Decls {
			for _, id := range declNames(d) {
				if !id.IsExported() {
					continue
				}
				obj := info.Defs[id]
				key := objKey(obj)
				s.decls[obj] = exportDecl{key: key, name: strings.TrimPrefix(key, pkg.Path()+"."), pos: id.Pos()}
			}
		}
	}
}

// declNames returns the names a top-level declaration declares.
func declNames(d ast.Decl) []*ast.Ident {
	if fd, ok := d.(*ast.FuncDecl); ok {
		return []*ast.Ident{fd.Name}
	}
	var out []*ast.Ident
	for _, spec := range d.(*ast.GenDecl).Specs {
		out = append(out, specNames(spec)...)
	}
	return out
}

// specNames returns the names one const, var or type spec declares.
func specNames(spec ast.Spec) []*ast.Ident {
	switch sp := spec.(type) {
	case *ast.ValueSpec:
		return sp.Names
	case *ast.TypeSpec:
		return []*ast.Ident{sp.Name}
	}
	return nil
}

// ownSpans maps each object a package declares at top level to its own
// declaration, whose uses of it do not count: a recursive function or
// type is not its own user.
func ownSpans(info *types.Info, files []*ast.File) map[types.Object][2]token.Pos {
	own := map[types.Object][2]token.Pos{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				own[info.Defs[fd.Name]] = [2]token.Pos{fd.Pos(), fd.End()}
				continue
			}
			for _, spec := range d.(*ast.GenDecl).Specs {
				for _, id := range specNames(spec) {
					own[info.Defs[id]] = [2]token.Pos{spec.Pos(), spec.End()}
				}
			}
		}
	}
	return own
}

// receiverTypes returns the identifiers naming a method's receiver type:
// a method does not use its own type.
func receiverTypes(files []*ast.File) map[*ast.Ident]bool {
	recv := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
	}
	return recv
}

// packageLevel reports whether obj is a function, method, or a constant,
// variable or type declared at package level.
func packageLevel(obj types.Object) bool {
	if obj.Pkg() == nil {
		return false
	}
	switch obj.(type) {
	case *types.Func:
		return true
	case *types.Const, *types.Var, *types.TypeName:
		return obj.Parent() == obj.Pkg().Scope()
	}
	return false
}

// objKey names obj the same way in every build of its package: import
// path, receiver type for a method, and name.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if r := receiverNamed(fn); r != nil {
			return fn.Pkg().Path() + "." + r.Obj().Name() + "." + fn.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// aliasedTypes returns the named types the root package aliases.
func aliasedTypes(root *types.Package) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, name := range root.Scope().Names() {
		if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				out[named.Obj()] = true
			}
		}
	}
	return out
}

// interfaces returns the interface types program code mentions and those
// declared at package level by any package program code reaches, the
// standard library's included.
func interfaces(checked map[string]*types.Package, program []*types.Info) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for path, p := range checked {
		if !strings.Contains(path, " ") {
			walk(p)
		}
	}
	for _, info := range program {
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	return out
}

// implements reports whether named or its pointer implements an interface
// that declares a method called name.
func implements(named *types.Named, name string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
					return true
				}
				break
			}
		}
	}
	return false
}

// receiverNamed returns the named type of fn's receiver, or nil for a
// function.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
