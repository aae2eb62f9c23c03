package axml_test

import (
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

// reachAllowed are the exported identifiers under internal/ that only
// tests reach on purpose, each with its reason. A package path allows
// every function it declares.
var reachAllowed = map[string]string{
	"internal/telemetry/spantest": "test support: the span-stream helpers the packages' tests share",
	"internal/repo.NewMemBackend": "the in-memory Backend fake the repository's and the session's tests run on",
}

// TestExportedFunctionsReached is `make reach` one level down: it fails on
// an exported function or method declared in a non-test file under
// internal/ that no non-test file of the module calls or refers to. The
// callers that count are the declaring package itself, the other internal
// packages, cmd/, benchmark/ and the facade (axml.go); examples/ and tests
// do not. A method also counts as reached when its receiver implements an
// interface with a method of that name, declared in the module or in an
// imported standard-library package (Stringer, error, http.Handler, ...).
// Methods of the types axml.go aliases are public API and always pass.
func TestExportedFunctionsReached(t *testing.T) {
	pkgs, err := listPackages()
	if err != nil {
		t.Fatal(err)
	}
	var module string // the root package's path, the shortest in the module
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else if module == "" || len(p.ImportPath) < len(module) {
			module = p.ImportPath
		}
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})

	type decl struct {
		fn  *types.Func
		pos token.Position
	}
	var decls []decl                         // exported functions under internal/
	bodies := map[*types.Func][2]token.Pos{} // a function's own body does not reach it
	reached := map[*types.Func]bool{}
	var ifaces []*types.Interface
	publicAPI := map[*types.TypeName]bool{}

	for _, p := range pkgs { // go list -deps prints dependencies first
		if p.Standard || strings.HasPrefix(p.ImportPath, module+"/examples/") {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		internal := strings.HasPrefix(p.ImportPath, module+"/internal/")
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, _ := info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					bodies[fn] = [2]token.Pos{d.Pos(), d.End()}
					if internal && d.Name.IsExported() {
						decls = append(decls, decl{fn: fn, pos: fset.Position(d.Pos())})
					}
				case *ast.GenDecl:
					if p.ImportPath != module {
						continue
					}
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
							if named, ok := types.Unalias(info.Defs[ts.Name].Type()).(*types.Named); ok {
								publicAPI[named.Obj()] = true
							}
						}
					}
				}
			}
		}
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if b, own := bodies[fn]; own && id.Pos() >= b[0] && id.Pos() < b[1] {
				continue
			}
			reached[fn] = true
		}
		for _, tv := range info.Types { // interface literals, e.g. in type assertions
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
		ifaces = append(ifaces, scopeInterfaces(pkg, false)...)
	}
	protocol, err := (&types.Config{}).Check("errors", fset, []*ast.File{mustParse(t, fset, errorsProtocol)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ifaces = append(ifaces, scopeInterfaces(protocol, false)...)
	seen := map[*types.Package]bool{}
	var stdlib func(*types.Package)
	stdlib = func(p *types.Package) {
		for _, q := range p.Imports() {
			if !seen[q] {
				seen[q] = true
				if _, own := checked[q.Path()]; !own {
					ifaces = append(ifaces, scopeInterfaces(q, true)...)
				}
				stdlib(q)
			}
		}
	}
	for _, p := range checked {
		stdlib(p)
	}

	var unreached []string
	for _, d := range decls {
		if reached[d.fn] || allowed(module, d.fn) {
			continue
		}
		if recv := receiverType(d.fn); recv != nil {
			if publicAPI[recv.Obj()] || implementsAny(recv, d.fn.Name(), ifaces) {
				continue
			}
		}
		rel, _ := filepath.Rel(mustGetwd(t), d.pos.Filename)
		unreached = append(unreached, fmt.Sprintf("%s:%d: %s", rel, d.pos.Line, funcName(module, d.fn)))
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d exported functions under internal/ are reached only from tests (delete them, or call them from production code):\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
}

// errorsProtocol declares the unnamed interfaces through which errors.Is,
// errors.As and errors.Unwrap call an error's methods.
const errorsProtocol = `package errors

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

func mustParse(t *testing.T, fset *token.FileSet, src string) *ast.File {
	f, err := parser.ParseFile(fset, "", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// listPackages returns the module's packages and every package they import,
// dependencies first, with the standard library's compiled export data.
func listPackages() ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scopeInterfaces returns the non-generic interface types a package
// declares at package level, only the exported ones if exportedOnly.
func scopeInterfaces(p *types.Package, exportedOnly bool) []*types.Interface {
	var out []*types.Interface
	for _, name := range p.Scope().Names() {
		tn, ok := p.Scope().Lookup(name).(*types.TypeName)
		if !ok || (exportedOnly && !tn.Exported()) {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			out = append(out, it)
		}
	}
	return out
}

// receiverType is the named type a method is declared on, nil for a
// plain function.
func receiverType(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// implementsAny reports whether T or *T implements an interface that has
// a method called name.
func implementsAny(named *types.Named, name string, ifaces []*types.Interface) bool {
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

// funcName is pkg.Func or pkg.Type.Method, with the package path
// relative to the module.
func funcName(module string, fn *types.Func) string {
	name := strings.TrimPrefix(fn.Pkg().Path(), module+"/")
	if recv := receiverType(fn); recv != nil {
		name += "." + recv.Obj().Name()
	}
	return name + "." + fn.Name()
}

func allowed(module string, fn *types.Func) bool {
	if _, ok := reachAllowed[strings.TrimPrefix(fn.Pkg().Path(), module+"/")]; ok {
		return true
	}
	_, ok := reachAllowed[funcName(module, fn)]
	return ok
}

func mustGetwd(t *testing.T) string {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}
