package nilicon_test

import (
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

// exportKeep lists the exported functions and methods that no non-test
// file calls, each with the reason it stays. An export that
// only tests call is otherwise a line that earns nothing: a test of
// the package reads the field or calls the unexported helper instead.
var exportKeep = map[string]string{
	"core.Replicator.AckedThrough":       "oracle: cluster tests check every chain's ack watermark",
	"core.Replicator.ReplicaAckLag":      "bound: the cluster chain test holds each replica's ack lag to 3 epochs",
	"core.Replicator.RetainedImageBytes": "bound: faultinject holds an isolated primary's retained images",
	"criu.PageStore.ForEach":             "oracle: core's regression test reads the backup's committed pages",
	"criu.PageStore.Len":                 "oracle: store, delta and backup tests count committed pages",
	"criu.PageStore.Put":                 "fixture: the store tests and the frame-decoder fuzzer commit copied pages",
	"metrics.Table.NumRows":              "oracle: harness and cluster tests count the rows of rendered tables",
	"simdisk.Disk.Checksum":              "oracle: replicated disks compare equal by content",
	"simdisk.Disk.Writes":                "counter: simfs and workloads tests count writebacks reaching the disk",
	"simfs.FS.Chmod":                     "kernel interface: chmod(2), driven by simfs's fgetfc attribute test",
	"simfs.FS.Chown":                     "kernel interface: chown(2), driven by simfs's fgetfc attribute test",
	"simfs.FS.DirtyPages":                "counter: simfs, criu and workloads tests count dirty page-cache pages",
	"simfs.FS.Sync":                      "kernel interface: fsync(2), driven by simfs's writeback tests",
	"simkernel.AddressSpace.Munmap":      "kernel interface: munmap(2), driven by the VMA and page-table tests",
	"simkernel.AddressSpace.Read":        "kernel interface: reading process memory, the oracle of the memory, criu and core tests",
	"simkernel.Cgroup.Frozen":            "oracle: freezer state, checked by the kernel and checkpoint tests",
	"simkernel.Kernel.Exit":              "kernel interface: exit(2), driven by simkernel's process-table test",
	"simkernel.Kernel.Processes":         "kernel interface: the process table core's backup tests read",
	"simnet.Port.Enabled":                "oracle: faultinject and restore tests check a container port's link state",
	"simnet.Port.Name":                   "identity: the only reader of the name every Attach caller, bench/ included, gives a port",
	"simnet.PlugQdisc.PendingEgress":     "counter: output held for commit, checked by simnet and core tests",
	"simnet.PlugQdisc.SetInput":          "fixture: criu's misordered-recovery test routes ingress to a socket-less stack",
	"simnet.Socket.Close":                "kernel interface: close(2), driven by the TCP, checkpoint and workload tests",
	"simnet.Socket.EnterRepair":          "kernel interface: TCP_REPAIR, driven by the repair and retransmit tests",
	"simnet.Socket.UnackedBytes":         "bound: tests hold the write queue while a peer is unreachable",
	"simnet.Stack.RSTsSent":              "counter: recovery must send no reset (§III)",
	"simnet.Switch.Lookup":               "oracle: the ARP table that restore, container and simnet tests read after a rebind",
	"simtime.Clock.Pending":              "oracle: simtime tests hold the live-event count (stopped timers are not counted)",
	"simtime.Clock.Run":                  "fixture: runs a test's single-clock engine to quiescence",
	"simtime.Clock.Stop":                 "fixture: ends a test's engine run from inside a callback",
	"simtime.NewClock":                   "fixture: the single-clock test engine of most packages",
	"simtime.Time.Seconds":               "conversion: tests divide virtual busy time by the elapsed virtual time",
	"trace.Timeline.Len":                 "oracle: tests count the epoch records a run wrote",
	"workloads.Server.State":             "oracle: chaos and workloads tests read the server's key-value state",
}

// TestEveryExportHasACaller fails on an exported function or method of
// a non-test file under internal/ or cmd/ that no non-test file of the
// module (bench/ included) refers to, unless exportKeep lists it.
// Callers are resolved by type (go/types), so a method counts only when
// its own type's method is used — not another type's method of the
// same name. A method also counts when its type implements an
// interface whose method of that name is used, or an interface of an
// imported standard-library package (fmt.Stringer, error, sort.Interface
// ...), which may call it dynamically; so the check errs toward keeping.
func TestEveryExportHasACaller(t *testing.T) {
	m := loadModule(t)
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
				if !ok || !lib || !fn.Name.IsExported() {
					continue
				}
				key := filepath.Base(p.dir) + "."
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					key += recvName(fn.Recv.List[0].Type) + "."
				}
				exports = append(exports, export{key + fn.Name.Name, p.info.Defs[fn.Name].(*types.Func)})
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
		if _, keep := exportKeep[e.key]; !keep && !used[e.fn] && !implementsUsed(e.fn) {
			orphans = append(orphans, e.key)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d exported functions or methods have no caller outside tests; delete them (and tests of them alone) or list them in exportKeep with a reason:\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
	for key := range exportKeep {
		found := false
		for _, e := range exports {
			found = found || e.key == key
		}
		if !found {
			t.Errorf("exportKeep lists %s, which is not an exported function or method", key)
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
