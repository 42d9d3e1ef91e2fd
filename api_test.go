package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported functions and methods under internal/ that
// only tests call, each with the tests that need it. Everything else exported
// there must be called from non-test code, or it goes.
var apiAllowlist = map[string]string{
	"AllClose":        "float comparisons in the tensor, baseline, graph, ipe, nn, quant and runtime tests",
	"MaxAbsDiff":      "error reports of the same tests and the quant reconstruction-error bounds",
	"Fill":            "constant inputs in the tensor, quant, graph, nn and runtime tests",
	"Cap":             "TestScratch* and the Par scratch test check that a Scratch grows only when it must",
	"ForgetDenseSims": "TestCompileAllocationBudget empties the dense-sim memo before its cold compile",
	"CheckConv":       "TestConvConformance, TestWinogradConformance and FuzzConformanceConv",
	"CheckDense":      "TestDenseConformance and FuzzConformanceDense",
	"CheckProgram":    "TestProgramConformance and FuzzConformanceProgram",
	"CheckGraph":      "TestGraphConformance and FuzzConformanceGraph",
	"CheckSharedDict": "TestSharedDictConformance and FuzzConformanceSharedDict",
}

// TestNoExportedFuncWithoutCaller fails on any exported function or method
// declared in a non-test file under internal/ whose name appears as an
// identifier in no non-test file of cmd/, internal/, examples/ or benchmark/,
// apart from its own declaration. Names in comments do not count.
func TestNoExportedFuncWithoutCaller(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	for _, root := range []string{"cmd", "internal", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			own := map[*ast.Ident]bool{}
			if root == "internal" {
				for _, dd := range f.Decls {
					if fn, ok := dd.(*ast.FuncDecl); ok && fn.Name.IsExported() {
						own[fn.Name] = true
						decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Pos())})
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !own[id] {
					used[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(apiAllowlist) > 10 {
		t.Errorf("allowlist has %d entries; keep it to 10 shared test helpers", len(apiAllowlist))
	}
	var dead []string
	for _, d := range decls {
		if !used[d.name] && apiAllowlist[d.name] == "" {
			dead = append(dead, d.pos.String()+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported with no non-test caller: %s", d)
	}
	for name := range apiAllowlist {
		if used[name] {
			t.Errorf("allowlisted %s has a non-test caller; drop it from the allowlist", name)
		}
	}
}
