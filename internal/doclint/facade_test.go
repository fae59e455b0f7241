package doclint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Paths of the facade and of the documents that name its surface,
// relative to this package.
const (
	rootDir     = "../.."
	examplesDir = "../../examples"
	readmePath  = "../../README.md"
)

// TestFacadeExportsAreNamed holds the root package lowlat to the
// documented library surface instead of a mirror of internal/. An export
// stays only if
//
//	(a) a Go file under examples/ names it as lowlat.X,
//	(b) README.md names it, as lowlat.X anywhere or in backticks in a
//	    library paragraph (one containing "as a library"), or
//	(c) it is spelled in the signature of an export kept by (a) or (b),
//	    taken transitively, so a caller can still write the type.
//
// Everything else is reached through the package that owns it.
func TestFacadeExportsAreNamed(t *testing.T) {
	exports := rootExports(t, rootDir)
	kept := map[string]bool{}
	var keep func(name string)
	keep = func(name string) {
		e, ok := exports[name]
		if !ok || kept[name] {
			return
		}
		kept[name] = true
		for _, ref := range e.refs {
			keep(ref)
		}
	}
	for name := range exampleNames(t, examplesDir) {
		keep(name)
	}
	for name := range readmeNames(t, readmePath) {
		keep(name)
	}
	var names []string
	for name := range exports {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !kept[name] {
			t.Errorf("%s: root export %s is named by no example, no README library paragraph and no kept signature; reach it through its owning package",
				exports[name].pos, name)
		}
	}
}

type rootExport struct {
	pos  string
	refs []string // root identifiers spelled in the declaration's signature
}

// rootExports parses the root package's non-test files and returns every
// exported top-level func, type, const and var with the bare identifiers
// its signature spells: parameter and result types for a func, the
// declared type for a type or value. Qualified names (graph.Graph) are
// not root identifiers and are skipped.
func rootExports(t *testing.T, dir string) map[string]rootExport {
	t.Helper()
	fset := token.NewFileSet()
	out := map[string]rootExport{}
	add := func(name *ast.Ident, sig ast.Node) {
		if name.IsExported() {
			out[name.Name] = rootExport{pos: fset.Position(name.Pos()).String(), refs: bareIdents(sig)}
		}
	}
	for _, file := range goFiles(t, dir) {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Type)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(name, s.Type)
						}
					}
				}
			}
		}
	}
	return out
}

// bareIdents lists the unqualified identifiers under n, not descending
// into selector expressions.
func bareIdents(n ast.Node) []string {
	var out []string
	if n == nil {
		return nil
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			return false
		case *ast.Ident:
			out = append(out, x.Name)
		}
		return true
	})
	return out
}

// exampleNames returns every X that a Go file under dir selects from
// its lowlat import (lowlat.X, or alias.X under a renamed import).
func exampleNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"lowlat"` {
				local = "lowlat"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					names[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", dir, err)
	}
	return names
}

var (
	qualifiedName = regexp.MustCompile(`\blowlat\.([A-Z]\w*)`)
	codeSpan      = regexp.MustCompile("`[^`\n]+`")
	identifier    = regexp.MustCompile(`[A-Za-z_]\w*`)
)

// readmeNames returns every lowlat.X the README spells, plus every
// identifier inside a backticked span of a library paragraph: a
// blank-line-separated paragraph outside fenced code that says "as a
// library".
func readmeNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	names := map[string]bool{}
	for _, m := range qualifiedName.FindAllStringSubmatch(string(data), -1) {
		names[m[1]] = true
	}
	var para []string
	flush := func() {
		text := strings.Join(para, "\n")
		para = para[:0]
		if !strings.Contains(strings.ToLower(text), "as a library") {
			return
		}
		for _, span := range codeSpan.FindAllString(text, -1) {
			for _, id := range identifier.FindAllString(span, -1) {
				names[id] = true
			}
		}
	}
	fenced := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
			flush()
		case fenced:
		case strings.TrimSpace(line) == "":
			flush()
		default:
			para = append(para, line)
		}
	}
	flush()
	return names
}

// goFiles lists the non-test Go files directly in dir.
func goFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var out []string
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	return out
}
