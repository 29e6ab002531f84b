package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The benchmark must keep working when the campaign runners, the old
// bench harness and the serial engine are merged away, so its non-test
// code may not touch them.
var (
	forbiddenImports = []string{"nilicon/internal/chaos", "nilicon/internal/harness", "nilicon/internal/report"}
	forbiddenCalls   = map[string][]string{"nilicon/internal/simtime": {"NewClock"}, "nilicon/internal/core": {"NewCluster"}}
)

// guardViolations lists forbidden imports and calls in one file.
func guardViolations(fset *token.FileSet, f *ast.File) []string {
	var out []string
	local := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		for _, bad := range forbiddenImports {
			if path == bad {
				out = append(out, fset.Position(imp.Pos()).String()+": imports "+path)
			}
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = path
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		for _, fn := range forbiddenCalls[local[pkg.Name]] {
			if sel.Sel.Name == fn {
				out = append(out, fset.Position(sel.Pos()).String()+": uses "+local[pkg.Name]+"."+fn)
			}
		}
		return true
	})
	return out
}

func TestImportGuard(t *testing.T) {
	var files []string
	for _, pat := range []string{"*.go", "cmp/*.go", "spec/*.go"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range guardViolations(fset, f) {
			t.Error(v)
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("checked only %d files", checked)
	}
}

// TestImportGuardFires shows the guard flags each forbidden use.
func TestImportGuardFires(t *testing.T) {
	src := `package p
import (
	"nilicon/internal/chaos"
	h "nilicon/internal/harness"
	"nilicon/internal/simtime"
	c "nilicon/internal/core"
)
var _ = chaos.X
var _ = h.Y
var clk = simtime.NewClock()
var cl = c.NewCluster(nil, c.ClusterParams{})
var ok = simtime.NewShardedClock(1)
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := guardViolations(fset, f)
	if len(got) != 4 {
		t.Fatalf("guard found %d violations, want 4: %v", len(got), got)
	}
}
