package dsmnc_test

import (
	"fmt"

	"dsmnc"
	"dsmnc/workload"
)

// testOptions is the paper's machine (8 clusters x 4 processors, 16 KB
// 2-way L1s) over the test-scale workloads, which keep each example
// well under a second.
func testOptions() dsmnc.Options {
	opt := dsmnc.DefaultOptions()
	opt.Scale = workload.ScaleTest
	return opt
}

// Simulate one workload on three remote-data-cache designs and compare
// the paper's headline metrics. The paper reports that on Ocean, a
// regular workload with high spatial locality, the 16 KB SRAM victim
// cache, backed by a page cache in ordinary main memory, approaches or
// beats the 512 KB DRAM network cache.
func Example() {
	opt := testOptions()
	bench := workload.Ocean(opt.Scale)
	systems := []dsmnc.System{
		dsmnc.Base(),       // no remote data cache at all
		dsmnc.NCD(),        // 512 KB DRAM network cache, full inclusion
		dsmnc.VB(16 << 10), // the paper's 16 KB SRAM network victim cache
	}
	fmt.Printf("%-8s %12s %14s %14s\n", "system", "miss-ratio%", "rd-stall(cyc)", "traffic(blk)")
	for _, sys := range systems {
		res, err := dsmnc.Run(bench, sys, opt)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-8s %12.3f %14d %14d\n",
			res.System, res.MissRatios().Total(), res.Stall().Total(), res.Traffic().Total())
	}
	// Output:
	// system    miss-ratio%  rd-stall(cyc)   traffic(blk)
	// base            1.067          53530           4582
	// NCD             0.792          49355           2713
	// vb              0.792          39929           2713
}

// Measure Radix's write and write-back traffic under the base system,
// the nc organization (inclusion kept for dirty blocks) and the network
// victim cache. Radix scatters writes across a huge, sparse destination
// array. The paper (§6.1.2, Figures 4 and 10) reports that a small NC
// that keeps inclusion becomes the ceiling on how much dirty remote
// data a cluster holds, so write-back traffic explodes, and that the
// victim cache removes that ceiling: any inclusion in a small NC is
// "something to avoid".
func ExampleResult_Traffic() {
	opt := testOptions()
	bench := workload.Radix(opt.Scale)
	fmt.Printf("%-6s %10s %10s %10s %10s\n", "system", "rd-miss", "wr-miss", "writeback", "total")
	for _, sys := range []dsmnc.System{dsmnc.Base(), dsmnc.NC(16 << 10), dsmnc.VB(16 << 10)} {
		res, err := dsmnc.Run(bench, sys, opt)
		if err != nil {
			fmt.Println(err)
			return
		}
		tr := res.Traffic()
		fmt.Printf("%-6s %10d %10d %10d %10d\n",
			res.System, tr.ReadMisses, tr.WriteMisses, tr.Writebacks, tr.Total())
	}
	// Output:
	// system    rd-miss    wr-miss  writeback      total
	// base         7365      30198       9245      46808
	// nc           7364      35583      18205      61152
	// vb           7364      26893       3594      37851
}

// Compare the adaptive relocation-threshold policy (paper §6.2, Figure
// 6) with a fixed threshold of 32 on workloads that thrash a small page
// cache. The adaptive policy tracks per-frame hit counters; when a
// monitoring window of frame reuses fails to amortize the relocation
// cost (break-even 12 hits), the node's threshold rises by 8 and the
// page cache backs off. The paper reports that this cuts relocations,
// and the 225-cycle overhead each one costs, wherever the fixed policy
// thrashes. The test-scale data sets are small, so a 1 KB NC and a page
// cache of 1/50 of the data set stand in for the paper's 16 KB NC and
// 1/20 page cache.
func ExampleSystem_adaptive() {
	opt := testOptions()
	fmt.Printf("%-6s %-8s %11s %10s %9s\n", "bench", "policy", "relocations", "pageEvicts", "thrRaises")
	for _, name := range []string{"Radix", "FMM"} {
		bench := workload.ByName(name, opt.Scale)
		fixed := dsmnc.NCPFrac(1<<10, 50)
		fixed.Name, fixed.Adaptive = "fixed32", false
		adaptive := dsmnc.NCPFrac(1<<10, 50)
		adaptive.Name = "adaptive"
		for _, sys := range []dsmnc.System{fixed, adaptive} {
			res, err := dsmnc.Run(bench, sys, opt)
			if err != nil {
				fmt.Println(err)
				return
			}
			c := res.Counters
			fmt.Printf("%-6s %-8s %11d %10d %9d\n",
				name, res.System, c.Relocations, c.PageEvictions, c.ThresholdRaises)
		}
	}
	// Output:
	// bench  policy   relocations pageEvicts thrRaises
	// Radix  fixed32          422        406         0
	// Radix  adaptive          86         70        16
	// FMM    fixed32          502        478         0
	// FMM    adaptive         229        205        30
}

// Run the paper's benchmarks on four machines: bare, SGI-Origin-style
// OS page migration and replication with no NC, the 16 KB victim NC,
// and the two combined. The Origin dropped the network cache and bet
// on page migration and replication instead; the paper closes (§7) by
// conjecturing that "a small, very fast NC could shield the page
// migration and replication policies from the noise of conflict
// misses". If the conjecture holds, vb+origin beats both parents: the
// NC absorbs the conflict misses that would otherwise trigger, and
// waste, OS page operations. Cholesky, which alone would take longer to
// simulate than all the others together, is left out.
func ExampleOrigin() {
	opt := testOptions()
	combined := dsmnc.VB(16 << 10)
	combined.Name, combined.Migration = "vb+origin", true
	systems := []dsmnc.System{dsmnc.Base(), dsmnc.Origin(), dsmnc.VB(16 << 10), combined}
	fmt.Println("read stall (10^3 cycles); page migrations and replications under vb+origin")
	fmt.Printf("%-9s %8s %8s %8s %10s %7s %7s\n", "bench", "base", "origin", "vb", "vb+origin", "mig", "repl")
	for _, name := range []string{"Barnes", "FFT", "FMM", "LU", "Ocean", "Radix", "Raytrace"} {
		bench := workload.ByName(name, opt.Scale)
		fmt.Printf("%-9s", name)
		var last dsmnc.Result
		for _, sys := range systems {
			res, err := dsmnc.Run(bench, sys, opt)
			if err != nil {
				fmt.Println(err)
				return
			}
			fmt.Printf(" %*d", max(8, len(sys.Name)), res.Stall().Total()/1000)
			last = res
		}
		fmt.Printf(" %7d %7d\n", last.Counters.Migrations, last.Counters.Replications)
	}
	// Output:
	// read stall (10^3 cycles); page migrations and replications under vb+origin
	// bench         base   origin       vb  vb+origin     mig    repl
	// Barnes         191      173      155       148       0      33
	// FFT             87       87       87        87       0       0
	// FMM           1651     1402     1378      1315       0     903
	// LU             127      107      121       107       0      89
	// Ocean           53       48       39        44      12       0
	// Radix          243       92      243        92       0     112
	// Raytrace       566      509      460       427       0      81
}
