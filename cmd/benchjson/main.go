// Command benchjson converts `go test -bench` text output on stdin to a
// stable JSON document on stdout, so benchmark baselines can be
// committed and diffed (see `make bench`, which writes
// BENCH_baseline.json).
//
// Usage:
//
//	go test -run '^$' -bench . . | benchjson > BENCH_baseline.json
//	go test -run '^$' -bench . . | benchjson -check BENCH_baseline.json
//
// Each benchmark line becomes an object with the benchmark name, the
// iteration count, and a metrics map keyed by unit (ns/op, refs/s,
// B/op, ...). The goos/goarch/pkg/cpu headers are carried through so a
// baseline records the machine it came from.
//
// With -check the parsed results are instead compared against a
// committed baseline: any benchmark whose ns/op exceeds the baseline by
// more than -tolerance (a fraction, default 0.10) is reported as a
// regression and the exit status is 1. Benchmarks present on only one
// side are noted but do not fail the check (baselines are recorded on a
// specific machine; the set of benchmarks may grow between PRs).
//
// Exit status: 0 on success (even when no benchmark lines were seen —
// the JSON then has an empty benchmark list), 1 on a read/write error
// or a failed -check.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	checkPath := flag.String("check", "", "baseline JSON to compare against instead of emitting JSON")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional ns/op regression before -check fails")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *checkPath, *tolerance); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer, checkPath string, tolerance float64) error {
	rep, err := parse(in)
	if err != nil {
		return err
	}
	if checkPath != "" {
		return check(out, rep, checkPath, tolerance)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func parse(in io.Reader) (report, error) {
	rep := report{Benchmarks: []benchmark{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return rep, sc.Err()
}

// check compares rep's ns/op numbers against the baseline at path and
// returns an error listing every benchmark that regressed past the
// tolerance. The full comparison table is written to out either way.
func check(out io.Writer, rep report, path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	baseNs := map[string]float64{}
	for _, b := range base.Benchmarks {
		if ns, ok := b.Metrics["ns/op"]; ok && ns > 0 {
			baseNs[b.Name] = ns
		}
	}
	var regressed []string
	compared := 0
	for _, b := range rep.Benchmarks {
		ns, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		want, ok := baseNs[b.Name]
		if !ok {
			fmt.Fprintf(out, "new      %-60s %14.0f ns/op (not in baseline)\n", b.Name, ns)
			continue
		}
		delete(baseNs, b.Name)
		compared++
		delta := ns/want - 1
		verdict := "ok"
		if delta > tolerance {
			verdict = "REGRESSED"
			regressed = append(regressed, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)", b.Name, want, ns, delta*100))
		}
		fmt.Fprintf(out, "%-8s %-60s %14.0f ns/op vs %14.0f (%+.1f%%)\n", verdict, b.Name, ns, want, delta*100)
	}
	missing := make([]string, 0, len(baseNs))
	for name := range baseNs {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(out, "missing  %-60s (in baseline, not in this run)\n", name)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmarks in common with baseline %s", path)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%:\n  %s",
			len(regressed), tolerance*100, strings.Join(regressed, "\n  "))
	}
	fmt.Fprintf(out, "bench-check: %d benchmark(s) within %.0f%% of %s\n", compared, tolerance*100, path)
	return nil
}

// parseBenchLine decodes one result line, e.g.
//
//	BenchmarkFig9-8    2    512000000 ns/op    98765 refs/s
//
// Lines that do not look like results (e.g. a bare "BenchmarkFoo" name
// echoed before its result) are skipped.
func parseBenchLine(line string) (benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b := benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
