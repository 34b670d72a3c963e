package dsmnc

// The Makefile's gates select their tests by name, and go test accepts a
// -run pattern that matches nothing: a renamed or deleted test would
// silently shrink its gate to zero tests. This test holds every -run
// pattern in the Makefile to the tests that actually exist.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// makeRun finds one -run flag, quoted or bare, in a recipe line.
var makeRun = regexp.MustCompile(`\s-run\s+(?:'([^']*)'|(\S+))`)

// testFuncs returns the Test* and Fuzz* functions declared in the
// package directory dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("Makefile names %s, which holds no test files", dir)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			if n := fn.Name.Name; strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Fuzz") {
				names = append(names, n)
			}
		}
	}
	return names
}

// TestMakefileRunPatternsMatchTests requires every |-separated
// alternative of every -run pattern in the Makefile to match at least
// one Test or Fuzz function declared in the packages its line names.
func TestMakefileRunPatternsMatchTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(mk), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		m := makeRun.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pattern := strings.ReplaceAll(m[1]+m[2], "$$", "$") // make's $$ is the shell's $
		var names []string
		for _, arg := range strings.Fields(line) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				names = append(names, testFuncs(t, arg)...)
			}
		}
		if len(names) == 0 {
			t.Errorf("Makefile:%d: -run %q names no package with tests", i+1, pattern)
			continue
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile:%d: -run alternative %q: %v", i+1, alt, err)
				continue
			}
			checked++
			matched := false
			for _, n := range names {
				if re.MatchString(n) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("Makefile:%d: -run alternative %q matches no test in its packages", i+1, alt)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d -run alternatives found; the Makefile scan is broken", checked)
	}
}
