package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: dsmnc
cpu: fake
BenchmarkFig9/base-8    2    100000000 ns/op    5000000 refs/s
BenchmarkFig9/vb-8      2    200000000 ns/op    2500000 refs/s
BenchmarkApplyHotPath-8 1000000    250 ns/op
PASS
`

func writeBaseline(t *testing.T, benches []benchmark) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	data, err := json.Marshal(report{Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestEmitJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleBench), &out, "", 0.10); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	if rep.Benchmarks[0].Metrics["refs/s"] != 5000000 {
		t.Fatalf("refs/s = %v", rep.Benchmarks[0].Metrics["refs/s"])
	}
}

func TestCheckPasses(t *testing.T) {
	// Baseline slightly slower than the run: everything within tolerance.
	path := writeBaseline(t, []benchmark{
		{Name: "BenchmarkFig9/base-8", Metrics: map[string]float64{"ns/op": 105000000}},
		{Name: "BenchmarkFig9/vb-8", Metrics: map[string]float64{"ns/op": 195000000}},
		{Name: "BenchmarkApplyHotPath-8", Metrics: map[string]float64{"ns/op": 260}},
	})
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleBench), &out, path, 0.10); err != nil {
		t.Fatalf("check failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "bench-check: 3 benchmark(s) within 10%") {
		t.Fatalf("missing summary line:\n%s", out.String())
	}
}

func TestCheckFailsOnRegression(t *testing.T) {
	// vb's baseline is far faster than the run: must fail and name it.
	path := writeBaseline(t, []benchmark{
		{Name: "BenchmarkFig9/base-8", Metrics: map[string]float64{"ns/op": 100000000}},
		{Name: "BenchmarkFig9/vb-8", Metrics: map[string]float64{"ns/op": 100000000}},
	})
	var out bytes.Buffer
	err := run(strings.NewReader(sampleBench), &out, path, 0.10)
	if err == nil {
		t.Fatalf("check passed despite 2x regression:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkFig9/vb-8") {
		t.Fatalf("regression error does not name the benchmark: %v", err)
	}
	if strings.Contains(err.Error(), "BenchmarkFig9/base-8") {
		t.Fatalf("unregressed benchmark reported: %v", err)
	}
}

func TestCheckToleranceBoundary(t *testing.T) {
	// Exactly at tolerance passes (strictly-greater comparison); just
	// past it fails.
	path := writeBaseline(t, []benchmark{
		{Name: "BenchmarkApplyHotPath-8", Metrics: map[string]float64{"ns/op": 200}},
	})
	run1 := "BenchmarkApplyHotPath-8 1000 240 ns/op\n"
	var out bytes.Buffer
	if err := run(strings.NewReader(run1), &out, path, 0.20); err != nil {
		t.Fatalf("exact-tolerance run failed: %v", err)
	}
	run2 := "BenchmarkApplyHotPath-8 1000 241 ns/op\n"
	out.Reset()
	if err := run(strings.NewReader(run2), &out, path, 0.20); err == nil {
		t.Fatal("past-tolerance run passed")
	}
}

func TestCheckDisjointSets(t *testing.T) {
	// New and missing benchmarks are reported but only a fully disjoint
	// set is an error.
	path := writeBaseline(t, []benchmark{
		{Name: "BenchmarkGone-8", Metrics: map[string]float64{"ns/op": 100}},
	})
	var out bytes.Buffer
	err := run(strings.NewReader(sampleBench), &out, path, 0.10)
	if err == nil {
		t.Fatalf("disjoint check passed:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "no benchmarks in common") {
		t.Fatalf("unexpected error: %v", err)
	}
	if !strings.Contains(out.String(), "missing  BenchmarkGone-8") {
		t.Fatalf("missing baseline entry not reported:\n%s", out.String())
	}
}
