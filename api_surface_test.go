package nilicon_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// readKeep returns testdata/keep.txt by key: each function that stays
// although no traffic executes it or no non-test file calls it, with
// the reason. scripts/traffic-coverage.sh reads the same file.
func readKeep(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "keep.txt"))
	if err != nil {
		t.Fatal(err)
	}
	keep := map[string]string{}
	for i, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, ok := strings.Cut(line, "\t")
		if !ok || key == "" || reason == "" {
			t.Fatalf("testdata/keep.txt:%d: want pkg.Func or pkg.Recv.Func, a tab and a reason: %q", i+1, line)
		}
		if _, dup := keep[key]; dup {
			t.Fatalf("testdata/keep.txt:%d: %s listed twice", i+1, key)
		}
		keep[key] = reason
	}
	return keep
}

// TestEveryExportHasACaller fails on an exported function or method of
// a non-test file under internal/ or cmd/ that no non-test file of the
// module (bench/ included) refers to, unless testdata/keep.txt lists it;
// and on a keep entry that names no function of internal/ or cmd/.
// Callers are resolved by type (go/types), so a method counts only when
// its own type's method is used — not another type's method of the
// same name. A method also counts when its type implements an
// interface whose method of that name is used, or an interface of an
// imported standard-library package (fmt.Stringer, error, sort.Interface
// ...), which may call it dynamically; so the check errs toward keeping.
func TestEveryExportHasACaller(t *testing.T) {
	keep := readKeep(t)
	m := loadModule(t)
	declared := map[string]bool{}
	type export struct {
		key string
		fn  *types.Func
	}
	var exports []export
	used := map[*types.Func]bool{}
	ifaceUsed := map[string][]*types.Interface{}
	for _, p := range m.pkgs {
		lib := strings.HasPrefix(p.dir, "internal/") || strings.HasPrefix(p.dir, "cmd/")
		for _, f := range p.files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !lib {
					continue
				}
				key := filepath.Base(p.dir) + "."
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					key += recvName(fn.Recv.List[0].Type) + "."
				}
				key += fn.Name.Name
				declared[key] = true
				if fn.Name.IsExported() {
					exports = append(exports, export{key, p.info.Defs[fn.Name].(*types.Func)})
				}
			}
		}
		for _, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					ifaceUsed[fn.Name()] = append(ifaceUsed[fn.Name()], it)
				}
			}
		}
	}
	// Every exported interface of an imported standard-library package,
	// and error, may call its methods from outside the module.
	for _, pkg := range m.std {
		for _, name := range pkg.Scope().Names() {
			if obj := pkg.Scope().Lookup(name); obj.Exported() {
				addInterface(ifaceUsed, obj.Type())
			}
		}
	}
	addInterface(ifaceUsed, types.Universe.Lookup("error").Type())

	implementsUsed := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		named, ok := types.Unalias(derefType(recv.Type())).(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaceUsed[fn.Name()] {
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}
	var orphans []string
	for _, e := range exports {
		if _, kept := keep[e.key]; !kept && !used[e.fn] && !implementsUsed(e.fn) {
			orphans = append(orphans, e.key)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exported functions or methods have no caller outside tests; delete them (and tests of them alone) or list them in testdata/keep.txt with a reason:\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
	var stale []string
	for key := range keep {
		if !declared[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("testdata/keep.txt lists %s, which is not a function of internal/ or cmd/", key)
	}
}

// addInterface files each method of t, if t is an interface, under its
// name.
func addInterface(ifaces map[string][]*types.Interface, t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		ifaces[name] = append(ifaces[name], it)
	}
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// typedPkg is one type-checked package of the module: its non-test
// files as the build would select them.
type typedPkg struct {
	dir   string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// module is the type-checked module: every package under the root
// (bench/'s nested module included, whose "nilicon" requirement is
// replaced by the root), and the standard-library packages they import.
type module struct {
	fset *token.FileSet
	pkgs map[string]*typedPkg // by import path
	std  map[string]*types.Package
	gc   types.Importer
}

// loadModule type-checks every directory under the root that holds
// non-test Go files. Standard-library imports come from the compiler's
// export data.
func loadModule(t *testing.T) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := &module{fset: fset, pkgs: map[string]*typedPkg{}, std: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", nil)}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if base := d.Name(); path != "." && (strings.HasPrefix(base, ".") || base == "testdata") {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			_, err = m.Import(filepath.ToSlash(filepath.Join("nilicon", path)))
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Import returns the type-checked package at path, checking a module
// package (and, first, its imports) on first use.
func (m *module) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p.pkg, nil
	}
	if path != "nilicon" && !strings.HasPrefix(path, "nilicon/") {
		if pkg, ok := m.std[path]; ok {
			return pkg, nil
		}
		pkg, err := m.gc.Import(path)
		if err != nil {
			return nil, err
		}
		m.std[path] = pkg
		return pkg, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, "nilicon"), "/")
	if dir == "" {
		dir = "."
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &typedPkg{dir: dir, info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: m}
	if p.pkg, err = conf.Check(path, m.fset, p.files, p.info); err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p.pkg, nil
}

// recvName is the type name of a method receiver, without pointer or
// type parameters.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
