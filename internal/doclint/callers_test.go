package doclint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the exported functions and methods that stay
// although no production code calls them, each with its reason. A name
// covers every function or method so named. A test-only path may stay
// for one of four reasons: it is a reference that tests compare the
// shipped code against, a seam that lets a test fake a dependency or
// shorten a wait, a check of a claim the paper makes, or part of the
// README-named root facade (which TestFacadeExportsAreNamed holds
// instead, so the root package is not scanned here).
var testOnlyAllowed = map[string]string{
	"Validate":             "reference: Placement.Validate and tm.Matrix.Validate are the invariants solver and generator tests assert",
	"Connected":            "reference: Graph.Connected is the connectivity oracle topology tests check against",
	"NewPath":              "reference: the delay a link chain sums to, checked against Dijkstra's",
	"WithScaledCapacities": "reference: reserving headroom h equals routing on a topology scaled by 1-h",
	"FromSamples":          "reference: mux's whole-PMF API that CheckLink's fused path is compared against",
	"TailMass":             "reference: mux's whole-PMF API that CheckLink's fused path is compared against",
	"Convolve":             "reference: mux's whole-PMF convolution, naive or FFT, the fused path is compared against",
	"ConvolveAll":          "reference: mux's whole-PMF convolution, naive or FFT, the fused path is compared against",
	"Tier":                 "seam: Server.Tier exposes the mounted cache tier to TestWrappersForwardEveryCapability",
	"Inner":                "seam: Forward.Inner unwraps a wrapper stack for TestWrappersForwardEveryCapability",
	"MarkDown":             "seam: a test marks a replica down without killing a process",
	"MarkUp":               "seam: a test drains a replica's hints on its own schedule",
	"AppraisePlacement":    "paper claim: core's appraisal retrofits headroom onto any scheme's placement (§8)",
}

// stdlibMethods are method names the standard library calls through its
// interfaces (sort, heap, encoding/json, errors, log/slog, go/types),
// so no caller in the module spells them.
var stdlibMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true,
	"UnmarshalJSON": true, "Enabled": true, "Handle": true,
	"WithAttrs": true, "WithGroup": true, "Import": true,
}

// TestProductionCodeHasCallers holds the module to one rule: production
// code is code a production entry point reaches. It parses every
// non-test .go file in the module and fails, listing file:line name, on
// any exported function or method whose name appears in no non-test
// file except at a declaration. Files under bench/ and examples/ count
// as callers. The check is by name, so it is coarse: any use of a name
// (a call, a method value, an interface method) keeps every function so
// named. Not scanned: the root package (TestFacadeExportsAreNamed holds
// it) and internal/analysis, whose entry point is its own test run
// (`make analyze`). A test-only path that must stay goes in
// testOnlyAllowed with its reason; anything else is deleted with the
// tests that check only it.
func TestProductionCodeHasCallers(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	unscanned := map[string]bool{root: true, filepath.Join(root, "internal", "analysis"): true}
	fset := token.NewFileSet()
	type decl struct {
		pos  token.Position
		name string
	}
	var decls []decl
	declared := map[string]int{} // name -> declarations
	seen := map[string]int{}     // name -> identifier occurrences
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				seen[id.Name]++
			}
			return true
		})
		scanned := !unscanned[filepath.Dir(path)]
		for _, dd := range file.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			declared[fn.Name.Name]++
			if scanned && !(fn.Recv != nil && stdlibMethods[fn.Name.Name]) {
				decls = append(decls, decl{fset.Position(fn.Name.Pos()), fn.Name.Name})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	needed := map[string]bool{}
	for _, d := range decls {
		if seen[d.name] > declared[d.name] {
			continue
		}
		if _, ok := testOnlyAllowed[d.name]; ok {
			needed[d.name] = true
			continue
		}
		rel, _ := filepath.Rel(root, d.pos.Filename)
		found = append(found, fmt.Sprintf("%s:%d %s", rel, d.pos.Line, d.name))
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s has no caller outside tests", f)
	}
	for name := range testOnlyAllowed {
		if !needed[name] {
			t.Errorf("testOnlyAllowed names %s, which is no test-only function (gone, or production calls it)", name)
		}
	}
}
