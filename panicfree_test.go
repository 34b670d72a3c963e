package dsmnc

// The simulation stack is panic-free by contract: malformed traces,
// impossible configurations and protocol-state corruption all surface as
// wrapped sentinel errors (ErrConfig, sim.ErrProtocol, sim.ErrBadRef,
// trace.ErrBadTrace, check.ErrInvariant, telemetry.ErrBadEventTrace,
// serve.ErrBadRequest, explore.ErrBadSpace), never as panics. This test
// walks the AST of every non-test source file in the library packages
// and fails on any panic call, so a regression names its exact position.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// panicFreeDirs are the library packages the contract covers. cmd/ is
// deliberately excluded: terminating a CLI on a fatal error is fine
// (the CLIs use log.Fatal / os.Exit, not panic, regardless).
var panicFreeDirs = []string{".", "internal", "trace", "memsys", "stats", "workload", "telemetry", "serve", "explore"}

func TestSimulationStackIsPanicFree(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	for _, root := range panicFreeDirs {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				// The "." root must not recurse into cmd/ or hidden
				// dirs; named roots recurse fully.
				if root == "." && path != "." {
					return fs.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			checked++
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					t.Errorf("%s: panic call in library code (return a wrapped sentinel error instead)",
						fset.Position(call.Pos()))
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", root, err)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d source files scanned; the walk is broken", checked)
	}
}
