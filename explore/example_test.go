package explore_test

import (
	"context"
	"fmt"

	"dsmnc/explore"
	"dsmnc/serve"
)

// Sweep the remote-data-cache design space of one workload: SRAM victim
// NCs of growing size, with and without a page cache, and the 512 KB
// DRAM NC. The engine simulates every point on an in-process scheduler
// and reports each point's stall, bit cost and traffic, marking the Pareto frontier on
// the (cost, stall) plane. The paper's Figure 2 sketches this frontier
// qualitatively: remote read stall as a function of how the RDC budget
// is spent, where a small SRAM victim NC backed by a page cache buys
// most of what a large DRAM NC does.
func ExampleEngine_Run() {
	sched, err := serve.New(serve.Config{QueueDepth: explore.MaxPoints})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = sched.Drain(context.Background()) }()
	eng := &explore.Engine{Sub: sched}
	rep, err := eng.Run(context.Background(), explore.Space{
		Bench: "FMM", Scale: "test", Tech: []string{"sram", "dram"}, Orgs: []string{"vb", "vbp"},
		NCKB: []int{1, 4, 16}, PCFrac: []int{5},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("stall normalized to the no-NC base; * marks the frontier")
	fmt.Printf("%-20s %8s %11s %12s %7s\n", "point", "stall", "cost(bits)", "traffic(blk)", "relocs")
	for _, p := range rep.Points {
		mark := ""
		if p.OnFrontier {
			mark = " *"
		}
		fmt.Printf("%-20s %8.3f %11d %12d %7d%s\n", p.Name,
			float64(p.SimStall)/float64(rep.BaselineStall), p.CostBits, p.TrafficBlocks, p.Relocations, mark)
	}
	// Output:
	// stall normalized to the no-NC base; * marks the frontier
	// point                   stall  cost(bits) traffic(blk)  relocs
	// sram-vb-1K-w4           0.987        8880        57666       0
	// sram-vb-4K-w4           0.948       35392        55444       0
	// sram-vb-16K-w4          0.835      141056        48997       0
	// sram-vbp-1K-w4-pc5      0.921        8880        49902     195 *
	// sram-vbp-4K-w4-pc5      0.899       35392        49121     177 *
	// sram-vbp-16K-w4-pc5     0.824      141056        46370     126 *
	// dram-512K               0.802      278528        33877       0 *
}
