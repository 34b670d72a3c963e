// Command dsmexplore runs a design-space exploration locally: enumerate
// a declarative spec over the remote-data-cache axes, simulate every
// configuration on an in-process scheduler, and print the Pareto
// frontier on the (SRAM bit cost, remote read stall) plane
// (docs/explore.md).
//
// Usage:
//
//	dsmexplore -bench FFT [-scale small] [-tech none,sram,dram]
//	           [-orgs nc,vb,vp,vxp] [-nc-kb 4,16,64] [-ways 4]
//	           [-dram-kb 512] [-pc-frac 5] [-thresholds 32]
//	           [-contention] [-workers N] [-csv] [-q]
//	dsmexplore -spec space.json       # full JSON spec from a file
//	dsmexplore -spec -                # ... or stdin
//
// The spec JSON schema is the POST /v1/explore body; -spec and the axis
// flags are mutually exclusive. -csv emits every point as CSV on stdout
// instead of the table.
//
// Exit status: 0 on success, 1 on a fatal error, 2 on usage errors.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"dsmnc/explore"
	"dsmnc/serve"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		specPath   = flag.String("spec", "", "JSON spec file ('-' for stdin); exclusive with the axis flags")
		bench      = flag.String("bench", "", "benchmark name (see workload.Names)")
		scale      = flag.String("scale", "small", "workload scale: test|small|medium|large")
		tech       = flag.String("tech", "", "comma-separated NC technologies: none,sram,dram")
		orgs       = flag.String("orgs", "", "comma-separated SRAM organizations: nc,vb,vp,ncp,vbp,vpp,vxp")
		ncKB       = flag.String("nc-kb", "", "comma-separated SRAM NC sizes in KB")
		ways       = flag.String("ways", "", "comma-separated NC associativities (powers of two)")
		dramKB     = flag.String("dram-kb", "", "comma-separated DRAM NC sizes in KB")
		pcFrac     = flag.String("pc-frac", "", "comma-separated page-cache fractions (memory/frac frames)")
		thresholds = flag.String("thresholds", "", "comma-separated relocation thresholds")
		contention = flag.Bool("contention", false, "add queueing-corrected stall per simulated point")
		workers    = flag.Int("workers", 0, "simulation worker pool size; 0 means NumCPU")
		csvOut     = flag.Bool("csv", false, "emit all simulated points as CSV instead of the table")
		quiet      = flag.Bool("q", false, "suppress progress messages on stderr")
	)
	flag.Parse()

	sp, code := buildSpace(*specPath, space(*bench, *scale, *tech, *orgs, *ncKB, *ways, *dramKB, *pcFrac, *thresholds, *contention))
	if code != 0 {
		return code
	}

	sched, err := serve.New(serve.Config{Workers: *workers, QueueDepth: explore.MaxPoints})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmexplore: %v\n", err)
		return 1
	}
	defer func() { _ = sched.Drain(context.Background()) }()

	eng := &explore.Engine{Sub: sched}
	if !*quiet {
		eng.OnProgress = func(p explore.Progress) {
			switch p.Phase {
			case "enumerated":
				fmt.Fprintf(os.Stderr, "dsmexplore: enumerated %d configurations\n", p.Enumerated)
			case "simulated":
				fmt.Fprintf(os.Stderr, "dsmexplore: simulated %d/%d\r", p.Simulated, p.Enumerated)
			case "frontier":
				// \n closes the \r-overwritten simulation progress line.
				fmt.Fprintf(os.Stderr, "\ndsmexplore: frontier has %d points\n", p.Frontier)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := eng.Run(ctx, sp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmexplore: %v\n", err)
		return 1
	}
	if *csvOut {
		return writeCSV(os.Stdout, rep)
	}
	printTable(os.Stdout, rep)
	return 0
}

// space assembles a Space from the axis flags.
func space(bench, scale, tech, orgs, ncKB, ways, dramKB, pcFrac, thresholds string, contention bool) explore.Space {
	return explore.Space{
		Bench:      bench,
		Scale:      scale,
		Tech:       splitStrs(tech),
		Orgs:       splitStrs(orgs),
		NCKB:       splitInts(ncKB),
		Ways:       splitInts(ways),
		DRAMKB:     splitInts(dramKB),
		PCFrac:     splitInts(pcFrac),
		Thresholds: splitInts(thresholds),
		Contention: contention,
	}
}

// buildSpace resolves the -spec flag against the flag-assembled space.
func buildSpace(path string, flagSpace explore.Space) (explore.Space, int) {
	if path == "" {
		if flagSpace.Bench == "" {
			fmt.Fprintln(os.Stderr, "dsmexplore: -bench or -spec is required")
			flag.Usage()
			return explore.Space{}, 2
		}
		return flagSpace, 0
	}
	if flagSpace.Bench != "" {
		fmt.Fprintln(os.Stderr, "dsmexplore: -spec and -bench are mutually exclusive")
		return explore.Space{}, 2
	}
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(io.LimitReader(os.Stdin, explore.MaxSpaceBytes+1))
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmexplore: read spec: %v\n", err)
		return explore.Space{}, 1
	}
	sp, err := explore.ParseSpace(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmexplore: %v\n", err)
		return explore.Space{}, 2
	}
	return sp, 0
}

// printTable renders the report: every simulated point, frontier marked.
func printTable(w io.Writer, rep *explore.Report) {
	fmt.Fprintf(w, "explore %s (%s): simulated %d configurations\n",
		rep.Spec.Bench, rep.Spec.Scale, rep.Enumerated)
	fmt.Fprintf(w, "baseline remote read stall: %d cycles\n\n", rep.BaselineStall)

	header := fmt.Sprintf("%-24s %12s %12s", "config", "cost(bits)", "sim-stall")
	if rep.Spec.Contention {
		header += fmt.Sprintf(" %12s", "w/queueing")
	}
	fmt.Fprintln(w, header+"  frontier")
	for _, p := range rep.Points {
		row := fmt.Sprintf("%-24s %12d %12d", p.Name, p.CostBits, p.SimStall)
		if rep.Spec.Contention {
			row += fmt.Sprintf(" %12d", p.ContentionStall)
		}
		mark := ""
		if p.OnFrontier {
			mark = "  *"
		}
		fmt.Fprintln(w, row+mark)
	}
	fmt.Fprintf(w, "\n%d Pareto-optimal points (*), cheapest first\n", len(rep.Frontier))
}

// writeCSV emits every simulated point, one row each.
func writeCSV(w io.Writer, rep *explore.Report) int {
	cw := csv.NewWriter(w)
	_ = cw.Write([]string{"name", "system", "nc_bytes", "nc_ways", "pc_frac", "threshold",
		"cost_bits", "sim_stall", "contention_stall", "on_frontier"})
	for _, p := range rep.Points {
		_ = cw.Write([]string{
			p.Name, p.System,
			strconv.Itoa(p.NCBytes), strconv.Itoa(p.NCWays), strconv.Itoa(p.PCFrac),
			strconv.FormatUint(uint64(p.Threshold), 10),
			strconv.FormatInt(p.CostBits, 10),
			strconv.FormatInt(p.SimStall, 10),
			strconv.FormatInt(p.ContentionStall, 10),
			strconv.FormatBool(p.OnFrontier),
		})
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		fmt.Fprintf(os.Stderr, "dsmexplore: csv: %v\n", err)
		return 1
	}
	return 0
}

// splitStrs parses a comma-separated flag into its non-empty fields.
func splitStrs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// splitInts parses a comma-separated flag into ints; malformed fields
// become -1 so the spec validator rejects them with a real message.
func splitInts(s string) []int {
	var out []int
	for _, f := range splitStrs(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			v = -1
		}
		out = append(out, v)
	}
	return out
}
