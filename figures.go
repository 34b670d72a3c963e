package dsmnc

import (
	"dsmnc/stats"
	"dsmnc/workload"
)

// The paper's figures (§6) and this reproduction's ablations as plain
// data: each Figure names its columns and how their cells become bars,
// and one runner executes any of them. The test suite checks every
// figure's conclusion against this table (claims_test.go), and
// EXPERIMENTS.md records the measured outcomes next to the paper's.

// projection turns a figure's simulated cells into bars. The set is
// closed, so a figure carries no code of its own.
type projection int

const (
	// missRatio shows each cell's miss-ratio decomposition.
	missRatio projection = iota
	// normStall divides each cell's remote read stall by that of a
	// hidden infinite-DRAM column.
	normStall
	// normTraffic divides each cell's remote traffic by that of a hidden
	// infinite-DRAM column.
	normTraffic
	// hopStall shows each column twice, under the constant 30-cycle
	// latency model and the hop-aware 30/45 model
	// (stats.HopModel), both normalized to the first column's
	// constant-model stall.
	hopStall
	// contentionStall shows the M/M/1-corrected stall
	// (stats.ContentionModel) normalized to a hidden infinite-DRAM
	// column's contention-free stall.
	contentionStall
)

// metric is the Experiment.Metric label of the projection.
func (p projection) metric() string {
	switch p {
	case missRatio:
		return "miss-ratio %"
	case normTraffic:
		return "normalized traffic"
	}
	return "normalized stall"
}

// hiddenBaseline reports whether the projection normalizes against an
// infinite-DRAM column that the figure does not show.
func (p projection) hiddenBaseline() bool {
	return p == normStall || p == normTraffic || p == contentionStall
}

// labels are the bar labels one column contributes.
func (p projection) labels(name string) []string {
	switch p {
	case hopStall:
		return []string{name + "-const", name + "-hops"}
	case contentionStall:
		return []string{name + "-q"}
	}
	return []string{name}
}

// values projects one cell into its bars; base is the row's baseline
// cell (the hidden infinite-DRAM column, or the first column for
// hopStall).
func (p projection) values(res, base Result, opt Options) []Value {
	v := ratioValue(res)
	baseStall := float64(base.Stall().Total())
	switch p {
	case normStall:
		if baseStall > 0 {
			v.Norm = float64(res.Stall().Total()) / baseStall
		}
	case normTraffic:
		if t := float64(base.Traffic().Total()); t > 0 {
			v.Norm = float64(res.Traffic().Total()) / t
		}
	case hopStall:
		hop := stats.HopModel{Lat: stats.DefaultHopLatencies(), Tech: res.Model.Tech}
		h := v
		h.Stall = hop.RemoteReadStall(&res.Counters)
		if baseStall > 0 {
			v.Norm = float64(res.Stall().Total()) / baseStall
			h.Norm = float64(h.Stall.Total()) / baseStall
		}
		return []Value{v, h}
	case contentionStall:
		cm := stats.ContentionModel{
			Lat: opt.Latencies, Tech: res.Model.Tech,
			Clusters:        opt.Geometry.Clusters,
			ProcsPerCluster: opt.Geometry.ProcsPerCluster,
		}
		v.Stall = cm.Evaluate(&res.Counters).Stall
		if baseStall > 0 {
			v.Norm = float64(v.Stall.Total()) / baseStall
		}
	}
	return []Value{v}
}

// column is one system of a figure, with an optional processor-cache
// associativity override (Figure 3's axis).
type column struct {
	sys    System
	l1Ways int // 0 keeps Options.L1Ways
}

// Figure is one regenerated figure or ablation: its columns, and the
// projection that turns their cells into bars.
type Figure struct {
	ID      string // "fig3" ... "fig11", "ablate-..."
	Title   string
	columns []column
	project projection
}

// Run simulates the figure over the eight benchmarks at opt.Scale.
func (f Figure) Run(opt Options) (Experiment, error) {
	return f.run(workload.All(opt.Scale), opt)
}

// jobs lists the figure's cells over benches, row by row, and how many
// columns it simulates; a hidden baseline, when the projection needs
// one, is column 0, and first is the first column the figure shows.
func (f Figure) jobs(benches []*workload.Bench, opt Options) (jobs []runJob, cols, first int) {
	cs := f.columns
	if f.project.hiddenBaseline() {
		cs = append([]column{{sys: InfiniteDRAM()}}, cs...)
		first = 1
	}
	for r, b := range benches {
		for c, col := range cs {
			o := opt
			if col.l1Ways > 0 {
				o.L1Ways = col.l1Ways
			}
			jobs = append(jobs, runJob{bench: b, sys: col.sys, opt: o, row: r, col: c})
		}
	}
	return jobs, len(cs), first
}

func (f Figure) run(benches []*workload.Bench, opt Options) (Experiment, error) {
	jobs, cols, first := f.jobs(benches, opt)
	results, failed, err := runMatrix(f.ID, jobs, len(benches), cols)
	if err != nil {
		return Experiment{}, err
	}
	// A hidden baseline occupies column 0 of the matrix but not of the
	// experiment; a failed baseline cell reports as column -1.
	for i := range failed {
		failed[i].Col -= first
	}
	exp := Experiment{ID: f.ID, Title: f.Title, Metric: f.project.metric(), Failed: failed}
	for _, c := range f.columns {
		exp.Systems = append(exp.Systems, f.project.labels(c.sys.Name)...)
	}
	for r, b := range benches {
		row := Row{Bench: b.Name}
		for c := first; c < cols; c++ {
			row.Values = append(row.Values, f.project.values(results[r][c], results[r][0], opt)...)
		}
		exp.Rows = append(exp.Rows, row)
	}
	return exp, nil
}

// Sweep runs every benchmark in benches against every system in systems
// and collects the miss-ratio decomposition of each cell: a missRatio
// figure over custom benchmarks, exported for custom design sweeps.
// With opt.KeepGoing, failing cells are recorded in Experiment.Failed
// instead of aborting the sweep.
func Sweep(id, title string, benches []*workload.Bench, systems []System, opt Options) (Experiment, error) {
	return Figure{ID: id, Title: title, columns: columns(systems...)}.run(benches, opt)
}

// columns wraps systems as columns with no per-column override.
func columns(systems ...System) []column {
	cols := make([]column, len(systems))
	for i, s := range systems {
		cols[i] = column{sys: s}
	}
	return cols
}

// Variants of the preset systems the figures compare.

func named(name string, s System) System { s.Name = name; return s }

func fixedThreshold(name string, s System, threshold uint32) System {
	s.Name, s.Adaptive, s.Threshold = name, false, threshold
	return s
}

func assoc(name string, s System, ways int) System {
	s.Name, s.NCWays = name, ways
	return s
}

func moesi(name string, s System) System         { s.Name, s.MOESI = name, true; return s }
func decrement(name string, s System) System     { s.Name, s.DecrementCounters = name, true; return s }
func dir4B(name string, s System) System         { s.Name, s.DirPointers = name, 4; return s }
func withMigration(name string, s System) System { s.Name, s.Migration = name, true; return s }

// Figures returns every figure and ablation dsmfig regenerates, in the
// paper's order. All NCs are 16 KB and 4-way unless a column says
// otherwise; "5" page caches hold 1/5 of the data set.
func Figures() []Figure {
	const kb16 = 16 << 10
	const pc512 = 512 << 10
	fig9 := columns(Base(), NCS(), NCD(),
		NCP(kb16, pc512), VBP(kb16, pc512), VPP(kb16, pc512),
		NCPFrac(kb16, 5), VBPFrac(kb16, 5), VPPFrac(kb16, 5))
	return []Figure{
		{ID: "fig3", Title: "Effects of the network victim cache on the cluster remote miss ratio",
			columns: []column{
				{named("1w-vb0", Base()), 1}, {named("1w-vb1", VB(1<<10)), 1}, {named("1w-vb16", VB(kb16)), 1},
				{named("2w-vb0", Base()), 2}, {named("2w-vb1", VB(1<<10)), 2}, {named("2w-vb16", VB(kb16)), 2},
				{named("4w-vb0", Base()), 4}, {named("4w-vb1", VB(1<<10)), 4}, {named("4w-vb16", VB(kb16)), 4},
			}},
		{ID: "fig4", Title: "Cluster miss ratios for different ways of integrating the NC",
			columns: columns(NC(kb16), VB(kb16))},
		{ID: "fig5", Title: "Cluster miss ratios for different ways of indexing the victim cache",
			columns: columns(VB(kb16), VP(kb16))},
		// The 1/20 page-cache columns exercise the paper's remark that
		// "with smaller page caches, thrashing occurs in other
		// applications as well": short traces rarely complete an ncp5
		// monitoring window.
		{ID: "fig6", Title: "Adaptive vs fixed (32) relocation threshold policies",
			columns: columns(
				named("ncp5-adaptive", NCPFrac(kb16, 5)), fixedThreshold("ncp5-fixed32", NCPFrac(kb16, 5), 32),
				named("ncp20-adaptive", NCPFrac(kb16, 20)), fixedThreshold("ncp20-fixed32", NCPFrac(kb16, 20), 32))},
		{ID: "fig7", Title: "Cluster miss ratios for systems with page caches",
			columns: columns(
				named("pc0", Base()), PCOnly(9), PCOnly(7), PCOnly(5),
				named("ncp0", NC(kb16)), NCPFrac(kb16, 9), NCPFrac(kb16, 7), NCPFrac(kb16, 5),
				named("vbp0", VB(kb16)), VBPFrac(kb16, 9), VBPFrac(kb16, 7), VBPFrac(kb16, 5))},
		{ID: "fig8", Title: "Cluster miss ratios with page cache: block vs page victim indexing",
			columns: columns(VBPFrac(kb16, 5), VPPFrac(kb16, 5))},
		{ID: "fig9", Title: "Remote read stalls", columns: fig9, project: normStall},
		{ID: "fig10", Title: "Remote data traffic", columns: fig9, project: normTraffic},
		{ID: "fig11", Title: "Remote read stalls: directory vs victim-cache relocation counters",
			columns: columns(NCPFrac(kb16, 5), VXPFrac(kb16, 5, 32), VXPFrac(kb16, 5, 64)),
			project: normStall},

		// Ablations: design choices the paper discusses but does not plot.
		{ID: "ablate-ostate", Title: "MESIR vs MOESIR (dirty-shared O state, paper §3.2)",
			columns: columns(named("vb-MESIR", VB(kb16)), moesi("vb-MOESIR", VB(kb16)))},
		{ID: "ablate-decr", Title: "Relocation-counter decrement on false invalidations (paper §3.4)",
			columns: columns(NCPFrac(kb16, 5), decrement("ncp5-decr", NCPFrac(kb16, 5)),
				named("vxp5", VXPFrac(kb16, 5, 32)), decrement("vxp5-decr", VXPFrac(kb16, 5, 32)))},
		{ID: "ablate-ncsize", Title: "Victim NC size sweep (design space of Figure 2)",
			columns: columns(named("vb1K", VB(1<<10)), named("vb4K", VB(4<<10)), named("vb16K", VB(kb16)),
				named("vb64K", VB(64<<10)), named("vb256K", VB(256<<10)))},
		{ID: "ablate-ncways", Title: "Victim NC associativity sweep",
			columns: columns(assoc("vb-1way", VB(kb16), 1), assoc("vb-2way", VB(kb16), 2),
				assoc("vb-4way", VB(kb16), 4), assoc("vb-8way", VB(kb16), 8))},
		{ID: "ablate-threshold", Title: "Fixed relocation-threshold sweep for ncp5",
			columns: columns(fixedThreshold("ncp5-t8", NCPFrac(kb16, 5), 8), fixedThreshold("ncp5-t16", NCPFrac(kb16, 5), 16),
				fixedThreshold("ncp5-t32", NCPFrac(kb16, 5), 32), fixedThreshold("ncp5-t64", NCPFrac(kb16, 5), 64),
				fixedThreshold("ncp5-t128", NCPFrac(kb16, 5), 128))},
		// §4: "two- and three-hop transactions have different latencies".
		{ID: "ablate-hops", Title: "Constant vs hop-aware remote latency (paper §4)",
			columns: columns(Base(), VB(kb16)), project: hopStall},
		// §3.4: under Dir_4B, broadcast-mode entries lose per-cluster
		// presence, so ncp's directory counters go noisy while vxp's
		// victim-cache counters are untouched.
		{ID: "ablate-dir", Title: "Full-map vs Dir_4B limited-pointer directory (paper §3.4)",
			columns: columns(NCPFrac(kb16, 5), dir4B("ncp5-dir4B", NCPFrac(kb16, 5)),
				named("vxp5", VXPFrac(kb16, 5, 32)), dir4B("vxp5-dir4B", VXPFrac(kb16, 5, 32)))},
		// §7: "a small, very fast NC could shield the page migration and
		// replication policies from the noise of conflict misses".
		{ID: "ablate-migration", Title: "Page migration/replication vs victim NC (paper §7 conjecture)",
			columns: columns(Base(), Origin(), VB(kb16), withMigration("vb+origin", VB(kb16)))},
		// Does contention change the ranking the §4 model gives?
		{ID: "ablate-contention", Title: "Contention-corrected remote read stalls (paper §4 simplification)",
			columns: columns(Base(), NCD(), VB(kb16), VBPFrac(kb16, 5)), project: contentionStall},
	}
}
