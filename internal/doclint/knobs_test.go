package doclint

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

// TestOptionFieldsAreSet keeps option fields from outliving their
// callers: every exported field of an exported `*Config` or `*Options`
// struct declared under internal/ must be written by some file of the
// module other than the one declaring it — a caller, test, example,
// CLI flag or bench workload. The declaring file is excluded because
// its withDefaults assigns every field. A value nothing sets is one
// value in use, and belongs in a constant.
//
// Matching is by field name alone, so it is conservative: a dead field
// whose name another type's field shares can slip through, but a live
// field never fails.
func TestOptionFieldsAreSet(t *testing.T) {
	writers := map[string]map[string]bool{} // field name -> files writing it
	type field struct{ file, typ, name string }
	var fields []field

	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "../.." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for name := range writtenFields(file) {
			if writers[name] == nil {
				writers[name] = map[string]bool{}
			}
			writers[name][path] = true
		}
		rel, _ := filepath.Rel("../..", path)
		if !strings.HasPrefix(rel, "internal"+string(filepath.Separator)) || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() ||
					!(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
					continue
				}
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						if n.IsExported() {
							fields = append(fields, field{rel, ts.Name.Name, n.Name})
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) == 0 {
		t.Fatal("no option fields found; is the module root ../..?")
	}

	var unset []string
	for _, f := range fields {
		written := false
		for path := range writers[f.name] {
			if rel, _ := filepath.Rel("../..", path); rel != f.file {
				written = true
				break
			}
		}
		if !written {
			unset = append(unset, f.file+": "+f.typ+"."+f.name)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is never set outside its own file; make it a constant", u)
	}
	t.Logf("%d exported option fields under internal/, %d unset", len(fields), len(unset))
}

// writtenFields returns every field name file writes: a composite
// literal key, the target of an assignment or ++/--, or the operand of
// &x.F.
func writtenFields(file *ast.File) map[string]bool {
	out := map[string]bool{}
	selector := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			out[sel.Sel.Name] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				out[id.Name] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				selector(lhs)
			}
		case *ast.IncDecStmt:
			selector(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				selector(n.X)
			}
		}
		return true
	})
	return out
}
