// Package doclint is a test-only gate over exported surfaces. The
// packages named in lintedPackages (the operator-facing surface plus the
// engine, store, sweep and predict cores) must document every exported
// identifier, and the root package may export only what the examples
// and README name (facade_test.go). No module source line may compile
// to a fused multiply-add on any architecture (fma_test.go). It runs as
// a plain test, so `go test ./...` — and with it CI's short and race
// jobs — fails on an undocumented export, a facade that grows back or a
// fused site instead of leaving the next reader to find them.
package doclint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintedPackages names the directories held to the documented-exports
// bar. These are the packages ARCHITECTURE.md and OPERATIONS.md send
// operators into; extend the list as more packages reach it.
var lintedPackages = []string{
	"../backend",
	"../cluster",
	"../engine",
	"../obs",
	"../predict",
	"../serve",
	"../store",
	"../sweep",
}

func TestExportedDeclarationsAreDocumented(t *testing.T) {
	for _, dir := range lintedPackages {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			for _, missing := range undocumentedExports(t, dir) {
				t.Errorf("%s: exported %s has no doc comment", missing.pos, missing.name)
			}
		})
	}
}

type finding struct {
	pos  string
	name string
}

// undocumentedExports parses every non-test file of the package at dir
// and returns the exported top-level declarations — funcs, methods on
// exported receivers, types, and the exported names inside var/const
// blocks — that carry no doc comment. A comment on the enclosing
// GenDecl counts for every name in the block, matching godoc's
// rendering.
func undocumentedExports(t *testing.T, dir string) []finding {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var out []finding
	report := func(pos token.Pos, name string) {
		out = append(out, finding{pos: fset.Position(pos).String(), name: name})
	}
	for _, entry := range entries {
		name := entry.Name()
		if entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				if d.Doc.Text() == "" {
					report(d.Pos(), declName(d))
				}
			case *ast.GenDecl:
				lintGenDecl(d, report)
			}
		}
	}
	return out
}

// exportedReceiver reports whether d is a plain function or a method
// whose receiver type is itself exported — methods on unexported types
// are invisible in godoc and exempt.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	return ast.IsExported(receiverTypeName(d.Recv.List[0].Type))
}

// receiverTypeName unwraps a receiver type expression ("*T", "T[P]",
// "T") to the base type name.
func receiverTypeName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// declName renders a FuncDecl for the error message: "Func" or
// "(Recv).Method".
func declName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return "(" + receiverTypeName(d.Recv.List[0].Type) + ")." + d.Name.Name
}

// lintGenDecl checks type, var and const declarations. Each exported
// name needs a doc comment on its own spec or on the enclosing block;
// import declarations are skipped.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	if d.Tok == token.IMPORT {
		return
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc.Text() == "" && s.Doc.Text() == "" {
				report(s.Pos(), s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && d.Doc.Text() == "" && s.Doc.Text() == "" && s.Comment.Text() == "" {
					report(name.Pos(), name.Name)
				}
			}
		}
	}
}
