// Command dsmfig regenerates the tables and figures of "The Effectiveness
// of SRAM Network Caches in Clustered DSMs" (Moga & Dubois, HPCA 1998).
//
// Usage:
//
//	dsmfig -exp fig9 [-scale small|medium|large] [-format table|chart|csv]
//	dsmfig -exp table1|table2|table3
//	dsmfig -exp all
//	dsmfig -exp fig9 -journal fig9.jsonl            # durable sweep
//	dsmfig -exp fig9 -journal fig9.jsonl -resume    # finish a killed sweep
//
// Figures print one bar group per benchmark; see EXPERIMENTS.md for how
// each experiment maps to the paper.
//
// Exit status: 0 on success, 1 on a fatal error, 2 on usage errors, and
// 3 when a -keepgoing sweep finished but recorded failed cells (listed
// on stderr).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"dsmnc"
	"dsmnc/telemetry"
	"dsmnc/workload"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		exp      = flag.String("exp", "", "experiment id: table1|table2|table3|fig3..fig11|all")
		scale    = flag.String("scale", "small", "workload scale: test|small|medium|large")
		format   = flag.String("format", "table", "output format: table|chart|csv")
		width    = flag.Int("width", 48, "chart width in characters")
		quiet    = flag.Bool("q", false, "suppress progress messages")
		keep     = flag.Bool("keepgoing", false, "record failing cells and continue instead of aborting the sweep")
		cellTO   = flag.Duration("timeout", 0, "per-cell time limit (e.g. 5m); 0 means none")
		journal  = flag.String("journal", "", "append each finished sweep cell to this JSONL write-ahead journal")
		resume   = flag.Bool("resume", false, "replay -journal and re-run only the cells it is missing")
		retries  = flag.Int("retries", 0, "retry transiently-failed cells (timeouts, panics) up to N extra times")
		progress = flag.Duration("progress", 0, "print a progress heartbeat at this interval (e.g. 10s); 0 disables")
		metrics  = flag.String("metrics", "", "serve Prometheus metrics and pprof on this address (e.g. :9090, :0 for a free port)")
	)
	flag.Parse()
	if *exp == "" {
		flag.Usage()
		return 2
	}
	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "dsmfig: -resume needs -journal")
		return 2
	}

	opt := dsmnc.DefaultOptions()
	opt.KeepGoing = *keep
	opt.CellTimeout = *cellTO
	opt.Retries = *retries
	var err error
	if opt.Scale, err = workload.ParseScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "dsmfig: unknown scale %q\n", *scale)
		return 2
	}
	if *journal != "" {
		jnl, err := dsmnc.OpenJournal(*journal, *resume)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsmfig: %v\n", err)
			return 1
		}
		defer jnl.Close()
		opt.Journal = jnl
		if !*quiet && *resume {
			fmt.Fprintf(os.Stderr, "resuming from %s: %d cells already journaled\n",
				jnl.Path(), jnl.Completed())
		}
	}
	if *progress > 0 || *metrics != "" {
		opt.Progress = &dsmnc.Progress{}
	}
	if *progress > 0 {
		stop := opt.Progress.Heartbeat(os.Stderr, *progress)
		defer stop()
	}
	if *metrics != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		if err := opt.Progress.RegisterMetrics(reg); err != nil {
			fmt.Fprintf(os.Stderr, "dsmfig: %v\n", err)
			return 1
		}
		srv, err := telemetry.Serve(*metrics, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsmfig: %v\n", err)
			return 1
		}
		defer srv.Close()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "dsmfig: serving metrics on %s (%s)\n", srv.Addr(), srv.URL())
		}
	}

	switch *exp {
	case "table1":
		dsmnc.WriteTable1(os.Stdout, opt.Latencies)
		return 0
	case "table2":
		dsmnc.WriteTable2(os.Stdout, opt.Latencies)
		return 0
	case "table3":
		dsmnc.WriteTable3(os.Stdout, dsmnc.Table3(opt))
		return 0
	}

	figs := dsmnc.Figures()
	if *exp == "all" {
		sort.Slice(figs, func(i, j int) bool { return figs[i].ID < figs[j].ID })
	} else {
		i := slices.IndexFunc(figs, func(f dsmnc.Figure) bool { return f.ID == *exp })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "dsmfig: unknown experiment %q\n", *exp)
			return 2
		}
		figs = figs[i : i+1]
	}

	var allFailed []string
	for _, f := range figs {
		id := f.ID
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s at %s scale...\n", id, opt.Scale)
		}
		start := time.Now()
		e, err := f.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsmfig: %s: %v\n", id, err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s done in %v\n", id, time.Since(start).Round(time.Millisecond))
		}
		switch *format {
		case "chart":
			e.WriteChart(os.Stdout, *width)
		case "csv":
			e.WriteCSV(os.Stdout)
		default:
			e.WriteTable(os.Stdout)
		}
		for _, f := range e.Failed {
			allFailed = append(allFailed, fmt.Sprintf("%s: %s", id, f))
		}
	}
	if len(allFailed) > 0 {
		fmt.Fprintf(os.Stderr, "dsmfig: %d cell(s) FAILED:\n", len(allFailed))
		for _, s := range allFailed {
			fmt.Fprintf(os.Stderr, "  %s\n", s)
		}
		return 3
	}
	return 0
}
