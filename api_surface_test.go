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

// unreadFields is every struct field of internal/ or cmd/ that stays
// although no non-test file reads it, by "pkg.Type.Field" (or
// "pkg.Type" for every field of a type), with the reason. Two kinds
// belong here: snapshot state that a checkpoint carries by value, and
// an oracle field that a test reads to observe behaviour.
var unreadFields = map[string]string{
	// Snapshot state (§II-B): criu collects it into the image and carries
	// it by value; restore rebuilds these parts from the rest.
	"simkernel.CgroupSnapshot.PIDs":  "restore re-adds the processes it recreates to the fresh group",
	"simkernel.CgroupSnapshot.Path":  "restore creates the group under the container's own path",
	"simkernel.DeviceFile":           "restore copies the device records into the container by value",
	"simkernel.FDSnapshot.Num":       "restore reopens descriptors in order and numbers them afresh",
	"simkernel.Mount.FSType":         "restore re-mounts every entry by value",
	"simkernel.Mount.Source":         "restore re-mounts every entry by value",
	"simkernel.NamespaceSnapshot.ID": "restore re-applies each namespace's configuration to a fresh namespace of its kind, under a fresh identity",
	"simkernel.TimerSnapshot.ID":     "restore re-arms timers in order under fresh identities",

	// Oracles: tests read these to observe behaviour.
	"criu.CheckpointStats.InfrequentCollect": "TestInfrequentStateCacheHitAndInvalidation observes the §V-B cache: a hit costs under 1 ms, a miss the full collection",
	"criu.CheckpointStats.VMACollect":        "TestNetlinkVsSmapsCollectCost and BenchmarkVMACollection observe netlink's VMA-collection saving over smaps",
	"harness.RunResult.Epochs":               "TestEpochColumnsCountTheWindowsRecords checks that an epoch was still in flight when the run stopped",
	"harness.RunResult.Errors":               "the harness run tests check that clients saw no errors",
	"harness.RunResult.Resets":               "TestRunServerStockBaseline checks that no connection was reset",
	"simnet.Socket.Reset":                    "the TCP tests check that repair, failover and lossy links reset no connection",

	// Set by the benchmark, whose sources stay fixed.
	"cluster.Params.Seed": "bench/fleet.go sets it; the fleet is deterministic without it",
}

// TestEveryFieldIsRead fails on a field of a struct declared in a
// non-test file under internal/ or cmd/ that no non-test file of the
// module (bench/ included) reads, unless unreadFields lists it; and on
// an unreadFields entry that names no such field or type. A read is any
// use other than an assignment target (an element of it included:
// x.f[k] = v writes f), the operand of ++ or --, or a composite-literal
// key. A field also counts as read when it has a struct tag (an encoder
// reads it), or when its struct is compared with == or != or is a map
// key type, which read every field. Embedded fields are not checked.
func TestEveryFieldIsRead(t *testing.T) {
	m := loadModule(t)
	type decl struct{ key, pos string }
	fields := map[*types.Var]decl{}
	typeKeys := map[string]bool{}
	read := map[*types.Var]bool{}
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i).Origin(); !read[f] {
					read[f] = true
					readAll(f.Type())
				}
			}
		case *types.Array:
			readAll(u.Elem())
		}
	}
	for _, p := range m.pkgs {
		lib := strings.HasPrefix(p.dir, "internal/") || strings.HasPrefix(p.dir, "cmd/")
		for _, f := range p.files {
			if lib {
				collectFields(p, f, func(key string, v *types.Var, tagged bool) {
					fields[v] = decl{key, m.fset.Position(v.Pos()).String()}
					typeKeys[key[:strings.LastIndex(key, ".")]] = true
					if tagged {
						read[v] = true
					}
				})
			}
			written := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, x := range n.Lhs {
						// Writing an element, x.f[k] = v, writes f.
						for ix, ok := x.(*ast.IndexExpr); ok; ix, ok = x.(*ast.IndexExpr) {
							x = ix.X
						}
						written[x] = true
					}
				case *ast.IncDecStmt:
					written[n.X] = true
				case *ast.BinaryExpr:
					if tv, ok := p.info.Types[n.X]; ok && (n.Op == token.EQL || n.Op == token.NEQ) {
						readAll(tv.Type)
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := p.info.Selections[sel]
				if s == nil || s.Kind() == types.MethodExpr {
					return true
				}
				if s.Kind() == types.FieldVal && !written[sel] {
					read[s.Obj().(*types.Var).Origin()] = true
				}
				return true
			})
		}
		for _, tv := range p.info.Types {
			if mt, ok := tv.Type.Underlying().(*types.Map); ok {
				readAll(mt.Key())
			}
		}
	}
	var unread []string
	for v, d := range fields {
		_, keptField := unreadFields[d.key]
		_, keptType := unreadFields[d.key[:strings.LastIndex(d.key, ".")]]
		if !read[v] && !keptField && !keptType {
			unread = append(unread, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d struct fields are read by no non-test file; delete them with the code that fills them, or list them in unreadFields with a reason:\n  %s",
			len(unread), strings.Join(unread, "\n  "))
	}
	declared := map[string]bool{}
	for _, d := range fields {
		declared[d.key] = true
	}
	for key, reason := range unreadFields {
		if reason == "" {
			t.Errorf("unreadFields: %s has no reason", key)
		}
		if !declared[key] && !typeKeys[key] {
			t.Errorf("unreadFields lists %s, which is not a struct field or type of internal/ or cmd/", key)
		}
	}
}

// collectFields calls fn with every named field of a struct type
// declared in f, keyed "pkg.Owner.Field", and whether the field has a
// struct tag. Embedded fields are left out: their promoted fields and
// methods read them. Owner is the innermost named type around the
// struct, else the function or package-level variable it appears in.
func collectFields(p *typedPkg, f *ast.File, fn func(key string, v *types.Var, tagged bool)) {
	var walk func(n ast.Node, owner string)
	walk = func(n ast.Node, owner string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				walk(n.Type, n.Name.Name)
				return false
			case *ast.Field:
				for _, id := range n.Names {
					if v, ok := p.info.Defs[id].(*types.Var); ok && v.IsField() {
						fn(filepath.Base(p.dir)+"."+owner+"."+id.Name, v, n.Tag != nil)
					}
				}
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			walk(d, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				owner := ""
				if vs, ok := spec.(*ast.ValueSpec); ok {
					owner = vs.Names[0].Name
				}
				walk(spec, owner)
			}
		}
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
	p := &typedPkg{dir: dir, info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
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

// bufferLists is every hand-written free list that stays outside
// internal/pool, by "pkg.Func list" (pkg.Recv.Method for a method), with
// the reason. Records go through pool.Free; these hold buffers.
var bufferLists = map[string]string{
	"simkernel.newPage pagePool.free": "page buffers, not records: one list shared by every world under a mutex and bounded at pagePoolMax",
	"simtime.wheel.getSlot w.free":    "the wheel's drained slot slices, not records: a slice is reused for its capacity and recycle clears it in bulk",
	"simnet.PlugQdisc.Rotate q.spare": "flushed egress packet batches, not records: a batch is reused for its capacity, and only by an epoch that sent something",
}

// TestNoHandWrittenFreeList fails on a hand-written free list outside
// internal/pool: a slice of pointers or slices that one function both
// reads at s[n-1] and cuts back with s = s[:n-1], unless bufferLists
// names it; and on a bufferLists entry that names no such list. A
// recycled record belongs in a pool.Free, whose constructor binds its
// callbacks once and whose pool.Refs checks its holder count.
func TestNoHandWrittenFreeList(t *testing.T) {
	m := loadModule(t)
	found := map[string]string{}
	for _, p := range m.pkgs {
		if p.dir == "internal/pool" {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := filepath.Base(p.dir) + "." + fd.Name.Name
				if fd.Recv != nil {
					name = filepath.Base(p.dir) + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				for _, list := range poppedLists(p, fd.Body) {
					found[name+" "+list] = m.fset.Position(fd.Pos()).String()
				}
			}
		}
	}
	var bad []string
	for key, pos := range found {
		if _, ok := bufferLists[key]; !ok {
			bad = append(bad, key+" ("+pos+")")
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("%d hand-written free lists outside internal/pool; recycle records through pool.Free, or list a buffer list in bufferLists with a reason:\n  %s",
			len(bad), strings.Join(bad, "\n  "))
	}
	for key, reason := range bufferLists {
		if reason == "" {
			t.Errorf("bufferLists: %s has no reason", key)
		}
		if _, ok := found[key]; !ok {
			t.Errorf("bufferLists lists %s, which is no longer a free list", key)
		}
	}
}

// poppedLists returns the slices, as written, that body pops: it reads
// s[e-1] and assigns s = s[:e-1]. Only slices of pointers or of slices
// count — things worth recycling.
func poppedLists(p *typedPkg, body *ast.BlockStmt) []string {
	minusOne := func(x ast.Expr) bool {
		b, ok := x.(*ast.BinaryExpr)
		if !ok || b.Op != token.SUB {
			return false
		}
		lit, ok := b.Y.(*ast.BasicLit)
		return ok && lit.Value == "1"
	}
	read, cut := map[string]bool{}, map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if minusOne(n.Index) {
				read[types.ExprString(n.X)] = true
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				s, ok := rhs.(*ast.SliceExpr)
				if !ok || s.Low != nil || s.High == nil || !minusOne(s.High) {
					continue
				}
				if x := types.ExprString(s.X); x == types.ExprString(n.Lhs[i]) {
					if sl, ok := p.info.Types[s.X].Type.Underlying().(*types.Slice); ok {
						switch sl.Elem().Underlying().(type) {
						case *types.Pointer, *types.Slice:
							cut[x] = true
						}
					}
				}
			}
		}
		return true
	})
	var lists []string
	for x := range cut {
		if read[x] {
			lists = append(lists, x)
		}
	}
	return lists
}
