package analysis

import (
	"testing"
)

// TestSuiteSelfGate runs the full analyzer suite over every package of
// this module, bench/ included. It is the one way the suite runs: `make
// analyze` (CI's lint step), plain `go test ./...` and the short and
// race jobs all reach it. Any finding is a failure, printed as
// "file:line:col: analyzer: message": fix the code or suppress the line
// with `//nolint:<analyzer> // reason` (see docs/DEVELOPING.md).
func TestSuiteSelfGate(t *testing.T) {
	pkgs, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module walk looks broken", len(pkgs))
	}
	findings, err := RunSuite(Suite(), pkgs)
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
