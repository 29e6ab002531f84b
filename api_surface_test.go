package nilicon_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportKeep lists the exported functions and methods that no non-test
// file calls by name, each with the reason it stays. An export that
// only tests call is otherwise a line that earns nothing: a test of
// the package reads the field or calls the unexported helper instead.
var exportKeep = map[string]string{
	"core.Replicator.AckedThrough":       "oracle: cluster tests check every chain's ack watermark",
	"core.Replicator.ReplicaAckLag":      "bound: the cluster chain test holds each replica's ack lag to 3 epochs",
	"core.Replicator.ReplicaAckLagGauge": "bound: the cluster chain test holds the lag gauge a metrics reader sees to 3 epochs",
	"core.Replicator.RetainedImageBytes": "bound: faultinject holds an isolated primary's retained images",
	"criu.PageStore.ForEach":             "oracle: core's regression test reads the backup's committed pages",
	"faultinject.HardKill":               "fixture: the host power-loss fault faultinject's takeover test drives",
	"metrics.Table.NumRows":              "oracle: harness and cluster tests count the rows of rendered tables",
	"simdisk.Disk.Checksum":              "oracle: replicated disks compare equal by content",
	"simdisk.Disk.Writes":                "counter: simfs and workloads tests count writebacks reaching the disk",
	"simfs.FS.Chmod":                     "kernel interface: chmod(2), driven by simfs's fgetfc attribute test",
	"simfs.FS.Chown":                     "kernel interface: chown(2), driven by simfs's fgetfc attribute test",
	"simkernel.AddressSpace.Munmap":      "kernel interface: munmap(2), driven by the VMA and page-table tests",
	"simkernel.Kernel.Processes":         "kernel interface: the process table core's backup tests read",
	"simnet.PlugQdisc.PendingEgress":     "counter: output held for commit, checked by simnet and core tests",
	"simnet.PlugQdisc.SetInput":          "fixture: criu's misordered-recovery test routes ingress to a socket-less stack",
	"simnet.Socket.EnterRepair":          "kernel interface: TCP_REPAIR, driven by the repair and retransmit tests",
	"simnet.Socket.UnackedBytes":         "bound: tests hold the write queue while a peer is unreachable",
	"simnet.Stack.RSTsSent":              "counter: recovery must send no reset (§III)",
	"simtime.NewClock":                   "fixture: the single-clock test engine of most packages",
}

// TestEveryExportHasACaller fails on an exported function or method of
// a non-test file under internal/ or cmd/ whose name no non-test file of
// the module (bench/ included) mentions, other than at its declaration,
// unless exportKeep lists it. A name counts wherever it appears as an
// identifier or selector, and a method named in an interface counts
// too, so the check errs toward keeping.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	type export struct{ key, name string }
	var exports []export
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := d.Name(); path != "." && (strings.HasPrefix(base, ".") || base == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, 0)
		if err != nil {
			return err
		}
		decl := map[*ast.Ident]bool{}
		lib := strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/")
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decl[fn.Name] = true
			if !lib || !fn.Name.IsExported() {
				continue
			}
			key := filepath.Base(filepath.Dir(path)) + "."
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			exports = append(exports, export{key + fn.Name.Name, fn.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, e := range exports {
		if _, keep := exportKeep[e.key]; !keep && !used[e.name] {
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
