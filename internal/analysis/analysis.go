// Package analysis is the repo's invariant-checking static-analysis
// suite: six passes that pin the determinism, lock-free-atomics,
// mutex-annotation, sentinel-error, context-flow and goroutine-lifecycle
// rules the serving stack documents in docs/DEVELOPING.md.
//
// The framework mirrors the core of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic and a `// want` golden-test runner — but is
// implemented on the standard library alone, because this module builds
// offline with no external dependencies. The suite runs one way: the
// TestSuiteSelfGate test loads the whole module from source, which is
// what `make analyze` and plain `go test ./...` execute. Analyzers
// written against it keep the upstream shape, so a future migration to
// x/tools is a mechanical import swap.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check. It mirrors
// x/tools/go/analysis.Analyzer: Name appears in diagnostics and in
// //nolint suppressions, Doc is the one-paragraph contract, and Run
// inspects a single type-checked package through its Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -run filters and
	// //nolint:<name> suppression comments. Lower-case, no spaces.
	Name string
	// Doc states the invariant the analyzer enforces.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass carries one type-checked package through one analyzer run.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions for every file in the package.
	Fset *token.FileSet
	// Files holds the package's parsed non-test sources.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// TypesInfo records types, definitions, uses and selections for
	// every expression in Files.
	TypesInfo *types.Info

	// report receives each diagnostic; the driver installs it.
	report func(Diagnostic)
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message states the violation and the fix, prefixed by the driver
	// with the analyzer name.
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Finding is a diagnostic resolved to a file position, tagged with the
// analyzer that produced it. Drivers sort findings by position.
type Finding struct {
	// Analyzer names the pass that produced the finding.
	Analyzer string
	// Pos is the resolved file position.
	Pos token.Position
	// Message is the diagnostic text.
	Message string
}

// String renders the conventional "file:line:col: analyzer: message"
// form the self-gate prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Run applies one analyzer to one loaded package and returns its
// findings with //nolint suppressions already filtered out.
func Run(a *Analyzer, pkg *Package) ([]Finding, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	sup := newSuppressions(pkg)
	var out []Finding
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if sup.suppressed(a.Name, pos) {
			continue
		}
		out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
	}
	return out, nil
}

// RunSuite applies every analyzer to every package and returns the
// merged findings in deterministic file/line order.
func RunSuite(analyzers []*Analyzer, pkgs []*Package) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			fs, err := Run(a, pkg)
			if err != nil {
				return nil, err
			}
			out = append(out, fs...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// nolintRe matches the suppression grammar documented in
// docs/DEVELOPING.md: `//nolint:name1,name2 // reason`. The reason is
// mandatory by convention (reviewed, not machine-enforced).
var nolintRe = regexp.MustCompile(`^nolint:([a-z0-9_,]+)`)

// suppressions indexes a package's //nolint comments by file and line.
type suppressions struct {
	// byLine maps filename -> line -> comma-joined analyzer names.
	byLine map[string]map[int]string
}

// newSuppressions scans every comment in the package.
func newSuppressions(pkg *Package) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int]string)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				m := nolintRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]string)
					s.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = m[1]
			}
		}
	}
	return s
}

// suppressed reports whether a finding by analyzer name at pos is
// covered by a //nolint comment on the same line or the line above.
func (s *suppressions) suppressed(name string, pos token.Position) bool {
	lines := s.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if names, ok := lines[line]; ok {
			for _, n := range strings.Split(names, ",") {
				if n == name || n == "all" {
					return true
				}
			}
		}
	}
	return false
}

// WithStack walks every file, calling f with each node and the stack of
// its ancestors (stack[len(stack)-1] == n). Analyzers use it where a
// node's meaning depends on context — e.g. "&f inside an atomic call".
func WithStack(files []*ast.File, f func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			f(n, stack)
			return true
		})
	}
}

// enclosingFuncs returns the function declarations and literals in
// stack, outermost first.
func enclosingFuncs(stack []ast.Node) []ast.Node {
	var out []ast.Node
	for _, n := range stack {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			out = append(out, n)
		}
	}
	return out
}

// isPkgCall reports whether call invokes pkgPath.name (e.g.
// "sync/atomic".AddUint64), resolving through the package's type info.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}
