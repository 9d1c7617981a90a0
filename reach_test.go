//go:build !race

package blinkdb

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed names the package-level functions and methods that no
// product path reaches but that stay in product files, each with its
// reason. A key is a package path (every function of that package) or one
// function as the failure prints it: pkg.F, pkg.T.M or pkg.(*T).M.
var reachAllowed = map[string]string{}

// TestProductReachability fails on any package-level function or method of
// the module that no product path reaches. It type-checks every non-test
// package under the amd64 and the arm64 file sets and marks reachable
// everything referenced, transitively, from
//   - each package's main and init functions and package-level vars,
//   - every exported name of package blinkdb (the library's API), and
//   - every method of a reachable type that satisfies an interface.
//
// A function reachable under either architecture is reachable. Code that
// only tests call belongs in _test.go files; a helper another package's
// tests need goes in reachAllowed with its reason.
func TestProductReachability(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	reached := map[string]bool{} // decl position → reached under some arch
	decls := map[string]funcDecl{}
	for _, arch := range []string{"amd64", "arm64"} {
		r, err := newReacher(fset, std, arch)
		if err != nil {
			t.Fatal(err)
		}
		r.run()
		for pos, fn := range r.funcs {
			decls[pos] = fn
			if r.reached[fn.obj] {
				reached[pos] = true
			}
		}
	}
	var dead []string
	used := map[string]bool{}
	for pos, fn := range decls {
		if reached[pos] {
			continue
		}
		if _, ok := reachAllowed[fn.name]; ok {
			used[fn.name] = true
			continue
		}
		if _, ok := reachAllowed[fn.pkg]; ok {
			used[fn.pkg] = true
			continue
		}
		dead = append(dead, fn.name+" ("+pos+")")
	}
	sort.Strings(dead)
	keys := make([]string, 0, len(reachAllowed))
	for key := range reachAllowed {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !used[key] {
			t.Errorf("allowlisted %s is reached or gone; drop it from reachAllowed", key)
		}
		t.Logf("allowlisted: %s — %s", key, reachAllowed[key])
	}
	if len(dead) > 0 {
		t.Errorf("%d package-level functions no product path reaches:\n\t%s\n"+
			"delete them, move them into _test.go files, or allowlist them with a reason",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// funcDecl is a package-level function or method of the module.
type funcDecl struct {
	obj  types.Object
	pkg  string // import path
	name string // as funcName prints it
}

// reacher is one architecture's type-checked module and its reference
// graph.
type reacher struct {
	fset   *token.FileSet
	std    types.Importer
	arch   string
	bpkgs  map[string]*build.Package // the module's packages by import path
	pkgs   map[string]*types.Package
	infos  []*types.Info
	files  [][]*ast.File
	paths  []string
	edges  map[types.Object][]types.Object
	roots  []types.Object
	named  []*types.Named // package-level named types of the module
	ifaces []*types.Interface

	funcs   map[string]funcDecl // by declaration position
	reached map[types.Object]bool
}

const modulePath = "blinkdb"

func newReacher(fset *token.FileSet, std types.Importer, arch string) (*reacher, error) {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled = "linux", arch, false
	r := &reacher{
		fset: fset, std: std, arch: arch,
		bpkgs: map[string]*build.Package{},
		pkgs:  map[string]*types.Package{},
		edges: map[types.Object][]types.Object{},
		funcs: map[string]funcDecl{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := ctx.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		ip := modulePath
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		r.bpkgs[ip] = bp
		return err
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(r.bpkgs))
	for ip := range r.bpkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := r.Import(ip); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Import type-checks a module package from its non-test files under r's
// build context, and hands any other path to the standard library
// importer.
func (r *reacher) Import(path string) (*types.Package, error) {
	if p, ok := r.pkgs[path]; ok {
		return p, nil
	}
	bp, ok := r.bpkgs[path]
	if !ok {
		return r.std.Import(path)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(r.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: r}
	p, err := conf.Check(path, r.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %v", path, r.arch, err)
	}
	r.pkgs[path] = p
	r.infos = append(r.infos, info)
	r.files = append(r.files, files)
	r.paths = append(r.paths, path)
	return p, nil
}

// run builds the reference graph and marks what the roots reach.
func (r *reacher) run() {
	for i, files := range r.files {
		for _, f := range files {
			r.graphFile(r.paths[i], r.infos[i], f)
		}
	}
	if api, ok := r.pkgs[modulePath]; ok {
		for _, name := range api.Scope().Names() {
			obj := api.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			r.roots = append(r.roots, obj)
			if tn, ok := obj.(*types.TypeName); ok {
				ms := types.NewMethodSet(types.NewPointer(tn.Type()))
				for i := 0; i < ms.Len(); i++ {
					if m := ms.At(i).Obj(); m.Exported() {
						r.roots = append(r.roots, m)
					}
				}
			}
		}
	}
	r.collectInterfaces()

	r.reached = map[types.Object]bool{}
	scanned := map[*types.Named]bool{}
	work := append([]types.Object(nil), r.roots...)
	for len(work) > 0 {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if !r.reached[obj] {
				r.reached[obj] = true
				work = append(work, r.edges[obj]...)
			}
		}
		// A reachable type's methods that satisfy an interface are
		// reachable: the program may call them through it.
		for _, n := range r.named {
			if r.reached[n.Obj()] && !scanned[n] {
				scanned[n] = true
				work = append(work, r.interfaceMethods(n)...)
			}
		}
	}
}

// graphFile records, for each package-level declaration of f, the objects
// it references, and the declarations that are roots.
func (r *reacher) graphFile(path string, info *types.Info, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			obj := info.Defs[d.Name]
			if obj == nil {
				continue
			}
			r.edges[obj] = r.refs(info, d)
			name := d.Name.Name
			if d.Recv == nil && (name == "init" || name == "main" && obj.Pkg().Name() == "main") {
				r.roots = append(r.roots, obj)
				continue
			}
			pos := r.fset.Position(d.Pos())
			key := fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)
			r.funcs[key] = funcDecl{obj: obj, pkg: path, name: funcName(path, obj.(*types.Func))}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				var names []*ast.Ident
				switch s := s.(type) {
				case *ast.ValueSpec:
					names = s.Names
				case *ast.TypeSpec:
					names = []*ast.Ident{s.Name}
				default:
					continue
				}
				refs := r.refs(info, s)
				for _, id := range names {
					obj := info.Defs[id]
					if obj == nil {
						continue
					}
					r.edges[obj] = refs
					if d.Tok == token.VAR {
						r.roots = append(r.roots, obj)
					}
					if tn, ok := obj.(*types.TypeName); ok {
						if n, ok := tn.Type().(*types.Named); ok {
							r.named = append(r.named, n)
						}
					}
				}
			}
		}
	}
}

// refs lists the package-level objects and methods that node references.
func (r *reacher) refs(info *types.Info, node ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch o := obj.(type) {
		case *types.Func:
			out = append(out, o.Origin())
		case *types.Var:
			if !o.IsField() && o.Parent() == o.Pkg().Scope() {
				out = append(out, o)
			}
		case *types.TypeName, *types.Const:
			if o.Parent() == o.Pkg().Scope() {
				out = append(out, o)
			}
		}
		return true
	})
	return out
}

// collectInterfaces gathers every interface type the module's code
// mentions and every package-level interface of the packages it imports,
// error included.
func (r *reacher) collectInterfaces() {
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue // unsafe.Pointer
			}
			if it, ok := n.Underlying().(*types.Interface); ok && n.TypeParams() == nil {
				r.ifaces = append(r.ifaces, it)
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range r.pkgs {
		visit(p)
	}
	r.ifaces = append(r.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, info := range r.infos {
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				r.ifaces = append(r.ifaces, it)
			}
		}
	}
}

// interfaceMethods returns the methods of *n, promoted ones included, that
// implement some interface *n satisfies.
func (r *reacher) interfaceMethods(n *types.Named) []types.Object {
	if n.TypeParams() != nil || n.NumMethods() == 0 {
		// A generic type's methods are reached through its
		// instantiations, whose uses record the generic method.
		return nil
	}
	ptr := types.NewPointer(n)
	ms := types.NewMethodSet(ptr)
	var out []types.Object
	for _, it := range r.ifaces {
		if it.NumMethods() == 0 || ms.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil {
			continue
		}
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			im := it.Method(i)
			if sel := ms.Lookup(im.Pkg(), im.Name()); sel != nil {
				out = append(out, sel.Obj().(*types.Func).Origin())
			}
		}
	}
	return out
}

// funcName prints a function as pkg.F, pkg.T.M or pkg.(*T).M.
func funcName(path string, fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return path + "." + fn.Name()
	}
	t := sig.Recv().Type()
	ptr := false
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), true
	}
	name := t.(*types.Named).Obj().Name()
	if ptr {
		return fmt.Sprintf("%s.(*%s).%s", path, name, fn.Name())
	}
	return fmt.Sprintf("%s.%s.%s", path, name, fn.Name())
}
