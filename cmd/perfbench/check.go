package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dsmnc"
	"dsmnc/stats"
)

// goldenCell is one committed cell of testdata/golden.
type goldenCell struct {
	Refs  int64          `json:"refs"`
	Stats stats.Counters `json:"stats"`
}

// loadGolden reads the golden corpus under root, keyed by
// "<system>_<bench>" with the corpus's file-safe system names.
func loadGolden(root string) (map[string]goldenCell, error) {
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "golden", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no golden corpus under %s", root)
	}
	out := map[string]goldenCell{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var g goldenCell
		if err := json.Unmarshal(raw, &g); err != nil {
			return nil, fmt.Errorf("golden %s: %w", p, err)
		}
		out[strings.TrimSuffix(filepath.Base(p), ".json")] = g
	}
	return out, nil
}

// diffResult compares a result against the expected one and describes
// every difference; an empty string means identical.
func diffResult(got dsmnc.Result, wantRefs int64, want stats.Counters) string {
	var b strings.Builder
	if got.Refs != wantRefs {
		fmt.Fprintf(&b, "refs %d, want %d; ", got.Refs, wantRefs)
	}
	for _, d := range stats.DiffCounters(got.Counters, want) {
		b.WriteString(d.String())
		b.WriteString("; ")
	}
	return b.String()
}

// checker collects correctness failures; any failure makes the run
// incorrect.
type checker struct {
	failures []string
}

func (c *checker) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

func (c *checker) ok() bool { return len(c.failures) == 0 }
