package dsmnc

// The repository's headline validation: every figure's conclusion,
// stated as a claim over a small-scale run of the figure table
// (Figures()) and checked here. Each claim quotes the paper's
// conclusion with a written tolerance; where this reproduction
// deviates, the claim encodes the measured deviation and cites its
// EXPERIMENTS.md "Known deviations" entry. EXPERIMENTS.md tags each
// figure section with its claim IDs (spec/name), and
// TestExperimentsDocTagsEveryClaim keeps the two in step. Skipped under
// -short: it simulates every figure once (about a minute on two cores).

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"dsmnc/workload"
)

// claim is one checked conclusion of a figure.
type claim struct {
	name  string // the ID suffix: the full ID is "<spec>/<name>"
	text  string // the conclusion and its tolerance
	check func(c *claimCtx)
}

// figureClaims are the claims about one spec of Figures().
type figureClaims struct {
	spec string
	// systems pins the figure's bar labels in order, so a claim that
	// names a column always reads the bar it means.
	systems string
	claims  []claim
}

var (
	regularClass = []string{"Cholesky", "FFT", "LU", "Ocean"}
	everyBench   = workload.Names()
)

// claimCtx gives a claim read access to every figure's results.
type claimCtx struct {
	t   *testing.T
	got map[string]Experiment
}

func (c *claimCtx) errorf(format string, args ...any) {
	c.t.Helper()
	c.t.Errorf(format, args...)
}

// v returns one bar of one figure.
func (c *claimCtx) v(spec, bench, sys string) Value {
	c.t.Helper()
	exp, ok := c.got[spec]
	if !ok {
		c.t.Fatalf("no results for %s", spec)
	}
	for _, row := range exp.Rows {
		if row.Bench != bench {
			continue
		}
		for i, s := range exp.Systems {
			if s == sys {
				return row.Values[i]
			}
		}
	}
	c.t.Fatalf("%s has no %s/%s bar", spec, bench, sys)
	return Value{}
}

// x is the figure's plotted metric for one bar: the normalized value
// of a normalized figure, else the stacked miss ratio.
func (c *claimCtx) x(spec, bench, sys string) float64 {
	c.t.Helper()
	v := c.v(spec, bench, sys)
	if e := c.got[spec]; e.normalized() {
		return v.Norm
	}
	return v.Total()
}

// atMost requires x(a) <= factor * x(b) on each bench.
func (c *claimCtx) atMost(spec string, benches []string, a, b string, factor float64) {
	c.t.Helper()
	for _, bench := range benches {
		if xa, xb := c.x(spec, bench, a), c.x(spec, bench, b); xa > factor*xb {
			c.errorf("%s %s: %s %.3f > %.2f x %s %.3f", spec, bench, a, xa, factor, b, xb)
		}
	}
}

// below requires x(a) < x(b) strictly on each bench.
func (c *claimCtx) below(spec string, benches []string, a, b string) {
	c.t.Helper()
	for _, bench := range benches {
		if xa, xb := c.x(spec, bench, a), c.x(spec, bench, b); xa >= xb {
			c.errorf("%s %s: %s %.3f not below %s %.3f", spec, bench, a, xa, b, xb)
		}
	}
}

// within requires every listed bar of bench to lie within rel of ref.
func (c *claimCtx) within(spec, bench, ref string, rel float64, systems ...string) {
	c.t.Helper()
	r := c.x(spec, bench, ref)
	for _, s := range systems {
		if xs := c.x(spec, bench, s); math.Abs(xs-r) > rel*r {
			c.errorf("%s %s: %s %.3f not within %.0f%% of %s %.3f", spec, bench, s, xs, 100*rel, ref, r)
		}
	}
}

// figureClaimTable holds the claims of every spec, in table order.
var figureClaimTable = []figureClaims{
	{spec: "fig3", systems: "1w-vb0 1w-vb1 1w-vb16 2w-vb0 2w-vb1 2w-vb16 4w-vb0 4w-vb1 4w-vb16", claims: []claim{
		{"vb1-2way-matches-4way", "a 1 KB victim NC with 2-way caches comes within 10% of 4-way caches without an NC (Barnes, Raytrace)",
			func(c *claimCtx) {
				c.atMost("fig3", []string{"Barnes", "Raytrace"}, "2w-vb1", "4w-vb0", 1.10)
			}},
		{"vb16-cuts-capacity", "with 2-way caches a 16 KB victim NC cuts the miss ratio by at least 5% on every benchmark but FFT",
			func(c *claimCtx) {
				c.atMost("fig3", []string{"Barnes", "Cholesky", "FMM", "LU", "Ocean", "Radix", "Raytrace"}, "2w-vb16", "2w-vb0", 0.95)
			}},
		{"fft-flat", "FFT barely moves (necessary misses): every bar within 2% of 1w-vb0",
			func(c *claimCtx) {
				c.within("fig3", "FFT", "1w-vb0", 0.02, c.got["fig3"].Systems...)
			}},
	}},
	{spec: "fig4", systems: "nc vb", claims: []claim{
		{"vb-le-nc", "vb <= nc on every benchmark (1% slack)",
			func(c *claimCtx) { c.atMost("fig4", everyBench, "vb", "nc", 1.01) }},
		{"radix-write-gap", "dirty inclusion caps Radix: nc's write miss ratio is at least 1.8x vb's",
			func(c *claimCtx) {
				nc, vb := c.v("fig4", "Radix", "nc").Write, c.v("fig4", "Radix", "vb").Write
				if nc < 1.8*vb {
					c.errorf("Radix write misses: nc %.3f < 1.8 x vb %.3f", nc, vb)
				}
			}},
		{"radix-nc-worse-than-none", "a small inclusive NC can be worse than no NC: Radix nc above fig3's 2w-vb0",
			func(c *claimCtx) {
				if nc, none := c.x("fig4", "Radix", "nc"), c.x("fig3", "Radix", "2w-vb0"); nc <= none {
					c.errorf("Radix: nc %.3f not above no-NC %.3f", nc, none)
				}
			}},
	}},
	{spec: "fig5", systems: "vb vp", claims: []claim{
		{"vp-degrades-regular", "page indexing degrades the high-spatial-locality benchmarks: vp >= 1.05 x vb on Cholesky, LU, Ocean",
			func(c *claimCtx) {
				c.atMost("fig5", []string{"Cholesky", "LU", "Ocean"}, "vb", "vp", 1/1.05)
			}},
		{"vp-radix-fmm", "vp slightly helps Radix (vp <= vb); FMM is essentially equal, vp within 3% of vb (Known deviation 6)",
			func(c *claimCtx) {
				c.atMost("fig5", []string{"Radix"}, "vp", "vb", 1)
				c.atMost("fig5", []string{"FMM"}, "vp", "vb", 1.03)
			}},
		{"vp-beats-no-nc", "vp is never worse than no NC (fig3's 2w-vb0, 1% slack)",
			func(c *claimCtx) {
				for _, b := range everyBench {
					if vp, none := c.x("fig5", b, "vp"), c.x("fig3", b, "2w-vb0"); vp > 1.01*none {
						c.errorf("%s: vp %.3f above no-NC %.3f", b, vp, none)
					}
				}
			}},
	}},
	{spec: "fig6", systems: "ncp5-adaptive ncp5-fixed32 ncp20-adaptive ncp20-fixed32", claims: []claim{
		{"adaptive-never-worse", "the adaptive policy never does worse than fixed-32 (1% slack) at either page-cache size",
			func(c *claimCtx) {
				c.atMost("fig6", everyBench, "ncp5-adaptive", "ncp5-fixed32", 1.01)
				c.atMost("fig6", everyBench, "ncp20-adaptive", "ncp20-fixed32", 1.01)
			}},
		{"adaptive-trims-thrashing", "with a 1/20 page cache the adaptive policy cuts relocation overhead by at least 5% on Radix and FMM",
			func(c *claimCtx) {
				for _, b := range []string{"Radix", "FMM"} {
					a, f := c.v("fig6", b, "ncp20-adaptive").Reloc, c.v("fig6", b, "ncp20-fixed32").Reloc
					if a > 0.95*f {
						c.errorf("%s: adaptive relocation %.3f not 5%% below fixed %.3f", b, a, f)
					}
				}
			}},
		{"ncp5-window-rarely-completes", "at ncp5 short traces rarely complete a monitoring window: adaptive within 1% of fixed everywhere (Known deviation 2)",
			func(c *claimCtx) {
				for _, b := range everyBench {
					c.within("fig6", b, "ncp5-fixed32", 0.01, "ncp5-adaptive")
				}
			}},
	}},
	{spec: "fig7", systems: "pc0 pc9 pc7 pc5 ncp0 ncp9 ncp7 ncp5 vbp0 vbp9 vbp7 vbp5", claims: []claim{
		{"vbp-le-pc-only", "the 16 KB victim NC improves on the page-cache-only system at every page-cache size (1% slack)",
			func(c *claimCtx) {
				for _, pc := range []string{"0", "9", "7", "5"} {
					c.atMost("fig7", everyBench, "vbp"+pc, "pc"+pc, 1.01)
				}
			}},
		{"vbp-le-ncp", "vbp <= ncp at every page-cache size (1% slack)",
			func(c *claimCtx) {
				for _, pc := range []string{"0", "9", "7", "5"} {
					c.atMost("fig7", everyBench, "vbp"+pc, "ncp"+pc, 1.01)
				}
			}},
		{"vbp-filters-relocation", "the victim NC filters conflict misses out of the counters: vbp's relocation overhead <= ncp's",
			func(c *claimCtx) {
				for _, pc := range []string{"9", "7", "5"} {
					for _, b := range everyBench {
						if v, n := c.v("fig7", b, "vbp"+pc).Reloc, c.v("fig7", b, "ncp"+pc).Reloc; v > n+0.0005 {
							c.errorf("%s pc%s: vbp relocation %.3f above ncp %.3f", b, pc, v, n)
						}
					}
				}
			}},
		{"fft-ocean-flat", "no difference for FFT (all bars within 2%); Ocean's page-cache systems lie within 0.15 percentage points (Known deviation 7)",
			func(c *claimCtx) {
				c.within("fig7", "FFT", "pc0", 0.02, c.got["fig7"].Systems...)
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, s := range []string{"pc9", "pc7", "pc5", "ncp9", "ncp7", "ncp5", "vbp9", "vbp7", "vbp5"} {
					x := c.x("fig7", "Ocean", s)
					lo, hi = math.Min(lo, x), math.Max(hi, x)
				}
				if hi-lo > 0.15 {
					c.errorf("Ocean page-cache systems span %.3f..%.3f", lo, hi)
				}
			}},
	}},
	{spec: "fig8", systems: "vbp5 vpp5", claims: []claim{
		{"indexings-converge", "with a 1/5 page cache vpp5 is within 5% (or 0.1 percentage points) of vbp5 on every benchmark but LU and Cholesky",
			func(c *claimCtx) {
				for _, b := range []string{"Barnes", "FFT", "FMM", "Ocean", "Radix", "Raytrace"} {
					vb, vp := c.x("fig8", b, "vbp5"), c.x("fig8", b, "vpp5")
					if d := math.Abs(vp - vb); d > 0.05*vb && d > 0.1 {
						c.errorf("%s: vpp5 %.3f vs vbp5 %.3f", b, vp, vb)
					}
				}
			}},
		{"lu-cholesky-prefer-vb", "LU and Cholesky still prefer block indexing: vbp5 < vpp5",
			func(c *claimCtx) { c.below("fig8", []string{"LU", "Cholesky"}, "vbp5", "vpp5") }},
	}},
	{spec: "fig9", systems: "base NCS NCD ncp vbp vpp ncp5 vbp5 vpp5", claims: []claim{
		{"fft-no-nc-beats-infinite-dram", "(a) on FFT no NC beats an infinite DRAM NC: base < 1",
			func(c *claimCtx) {
				if v := c.x("fig9", "FFT", "base"); v >= 1 {
					c.errorf("FFT base = %.3f, want < 1", v)
				}
			}},
		{"regular-vbp-beats-ncd", "(b) regular class: vbp < 1.02 x NCD",
			func(c *claimCtx) { c.atMost("fig9", regularClass, "vbp", "NCD", 1.02) }},
		{"irregular-ncd-beats-ncp", "(b) irregular class: NCD < ncp on FMM, Radix, Raytrace",
			func(c *claimCtx) { c.below("fig9", []string{"FMM", "Radix", "Raytrace"}, "NCD", "ncp") }},
		{"irregular-ncd-vs-vbp", "(b) irregular class: NCD < vbp on FMM; Radix and Raytrace are near-ties, |NCD - vbp| <= 0.10 (Known deviations 3, 4)",
			func(c *claimCtx) {
				c.below("fig9", []string{"FMM"}, "NCD", "vbp")
				for _, b := range []string{"Radix", "Raytrace"} {
					if n, v := c.x("fig9", b, "NCD"), c.x("fig9", b, "vbp"); math.Abs(n-v) > 0.10 {
						c.errorf("%s: NCD %.3f vs vbp %.3f is no near-tie", b, n, v)
					}
				}
			}},
		{"barnes-sides-with-page-caches", "(b) Barnes sides with the page caches (small data set): vbp < NCD",
			func(c *claimCtx) { c.below("fig9", []string{"Barnes"}, "vbp", "NCD") }},
		{"vbp-le-ncp", "(c) vbp <= 1.01 x ncp on every benchmark",
			func(c *claimCtx) { c.atMost("fig9", everyBench, "vbp", "ncp", 1.01) }},
		{"lu-page-indexing-loss", "(d) vpp ~ vbp except where page indexing conflicts: LU vpp > vbp",
			func(c *claimCtx) { c.below("fig9", []string{"LU"}, "vbp", "vpp") }},
		{"ncs-lower-bound", "the infinite SRAM NC bounds every system from below (2% protocol slack)",
			func(c *claimCtx) {
				for _, s := range c.got["fig9"].Systems {
					c.atMost("fig9", everyBench, "NCS", s, 1/0.98)
				}
			}},
	}},
	{spec: "fig10", systems: "base NCS NCD ncp vbp vpp ncp5 vbp5 vpp5", claims: []claim{
		{"radix-victim-cuts-traffic", "the victim cache cuts Radix traffic: vbp <= 0.7 x ncp",
			func(c *claimCtx) { c.atMost("fig10", []string{"Radix"}, "vbp", "ncp", 0.7) }},
		{"radix-ncd-lowest", "NCD is the Radix traffic winner: NCD <= vbp",
			func(c *claimCtx) { c.atMost("fig10", []string{"Radix"}, "NCD", "vbp", 1) }},
		{"fft-insensitive", "FFT traffic is insensitive to the NC: every bar in [0.95, 1.10]",
			func(c *claimCtx) {
				for _, s := range c.got["fig10"].Systems {
					if v := c.x("fig10", "FFT", s); v < 0.95 || v > 1.10 {
						c.errorf("FFT traffic under %s = %.3f, want ~1", s, v)
					}
				}
			}},
	}},
	{spec: "fig11", systems: "ncp5 vxp5(t32) vxp5(t64)", claims: []claim{
		{"lu-vxp-loss", "LU is vxp's loss (page-indexed conflicts): vxp5(t32) > ncp5",
			func(c *claimCtx) { c.below("fig11", []string{"LU"}, "ncp5", "vxp5(t32)") }},
		{"radix-threshold-64", "Radix improves markedly at threshold 64: vxp5(t64) < vxp5(t32)",
			func(c *claimCtx) { c.below("fig11", []string{"Radix"}, "vxp5(t64)", "vxp5(t32)") }},
		{"cholesky-vxp-matches-ncp", "vxp performs as well as ncp on conflict-prone Cholesky: vxp5(t32) <= 1.05 x ncp5",
			func(c *claimCtx) { c.atMost("fig11", []string{"Cholesky"}, "vxp5(t32)", "ncp5", 1.05) }},
	}},
	{spec: "ablate-ostate", systems: "vb-MESIR vb-MOESIR", claims: []claim{
		{"very-little-benefit", "the O state buys very little: MOESIR's miss ratio is within 0.5% of MESIR's",
			func(c *claimCtx) {
				for _, b := range everyBench {
					c.within("ablate-ostate", b, "vb-MESIR", 0.005, "vb-MOESIR")
				}
			}},
	}},
	{spec: "ablate-decr", systems: "ncp5 ncp5-decr vxp5 vxp5-decr", claims: []claim{
		{"not-significant", "counter decrement is not significant: the read+write miss ratio moves by at most 5%, and relocation overhead never rises",
			func(c *claimCtx) {
				for _, pair := range [][2]string{{"ncp5", "ncp5-decr"}, {"vxp5", "vxp5-decr"}} {
					for _, b := range everyBench {
						p, d := c.v("ablate-decr", b, pair[0]), c.v("ablate-decr", b, pair[1])
						if pm, dm := p.Read+p.Write, d.Read+d.Write; math.Abs(dm-pm) > 0.05*pm {
							c.errorf("%s: %s misses %.3f vs %s %.3f", b, pair[1], dm, pair[0], pm)
						}
						if d.Reloc > p.Reloc+0.0005 {
							c.errorf("%s: %s relocation %.3f above %s %.3f", b, pair[1], d.Reloc, pair[0], p.Reloc)
						}
					}
				}
			}},
	}},
	{spec: "ablate-ncsize", systems: "vb1K vb4K vb16K vb64K vb256K", claims: []claim{
		{"monotone", "the miss ratio never rises as the victim NC grows from 1 KB to 256 KB (0.5% slack)",
			func(c *claimCtx) {
				sizes := c.got["ablate-ncsize"].Systems
				for i := 1; i < len(sizes); i++ {
					c.atMost("ablate-ncsize", everyBench, sizes[i], sizes[i-1], 1.005)
				}
			}},
		{"fft-never-moves", "FFT never moves: every size within 1% of vb1K",
			func(c *claimCtx) { c.within("ablate-ncsize", "FFT", "vb1K", 0.01, c.got["ablate-ncsize"].Systems...) }},
	}},
	{spec: "ablate-ncways", systems: "vb-1way vb-2way vb-4way vb-8way", claims: []claim{
		{"4way-captures-most", "more ways never hurt (0.5% slack), and 8-way adds at most 3% over 4-way, except Ocean at most 10% (Known deviation 8)",
			func(c *claimCtx) {
				ways := c.got["ablate-ncways"].Systems
				for i := 1; i < len(ways); i++ {
					c.atMost("ablate-ncways", everyBench, ways[i], ways[i-1], 1.005)
				}
				for _, b := range everyBench {
					gain := 0.03
					if b == "Ocean" {
						gain = 0.10
					}
					c.atMost("ablate-ncways", []string{b}, "vb-4way", "vb-8way", 1/(1-gain))
				}
			}},
	}},
	{spec: "ablate-threshold", systems: "ncp5-t8 ncp5-t16 ncp5-t32 ncp5-t64 ncp5-t128", claims: []claim{
		{"trade-relocation-for-misses", "low thresholds trade relocation overhead for miss ratio: relocation never rises with the threshold, and t128's read+write miss ratio is at least t8's",
			func(c *claimCtx) {
				thr := c.got["ablate-threshold"].Systems
				for _, b := range everyBench {
					for i := 1; i < len(thr); i++ {
						if lo, hi := c.v("ablate-threshold", b, thr[i-1]).Reloc, c.v("ablate-threshold", b, thr[i]).Reloc; hi > lo+0.0005 {
							c.errorf("%s: relocation %.3f at %s above %.3f at %s", b, hi, thr[i], lo, thr[i-1])
						}
					}
					t8, t128 := c.v("ablate-threshold", b, "ncp5-t8"), c.v("ablate-threshold", b, "ncp5-t128")
					if t128.Read+t128.Write < t8.Read+t8.Write-0.0005 {
						c.errorf("%s: t128 misses %.3f below t8 %.3f", b, t128.Read+t128.Write, t8.Read+t8.Write)
					}
				}
			}},
	}},
	{spec: "ablate-hops", systems: "base-const base-hops vb-const vb-hops", claims: []claim{
		{"ranking-unchanged", "hop-aware pricing only adds stall (at most 25%, FFT at most 50%: Known deviation 5) and never puts vb above base (1% slack)",
			func(c *claimCtx) {
				for _, b := range everyBench {
					limit := 1.25
					if b == "FFT" {
						limit = 1.50
					}
					for _, s := range []string{"base", "vb"} {
						k, h := c.x("ablate-hops", b, s+"-const"), c.x("ablate-hops", b, s+"-hops")
						if h < k || h > limit*k {
							c.errorf("%s %s: hop-aware %.3f vs constant %.3f", b, s, h, k)
						}
					}
				}
				c.atMost("ablate-hops", everyBench, "vb-const", "base-const", 1.01)
				c.atMost("ablate-hops", everyBench, "vb-hops", "base-hops", 1.01)
			}},
	}},
	{spec: "ablate-dir", systems: "ncp5 ncp5-dir4B vxp5 vxp5-dir4B", claims: []claim{
		{"vxp-unaffected", "vxp's counters live in the NC: vxp5 under Dir_4B is bit-identical to full-map",
			func(c *claimCtx) {
				for _, b := range everyBench {
					if f, l := c.v("ablate-dir", b, "vxp5"), c.v("ablate-dir", b, "vxp5-dir4B"); f != l {
						c.errorf("%s: vxp5 %+v differs under Dir_4B: %+v", b, f, l)
					}
				}
			}},
		{"ncp-survives", "ncp's counters go noisy under broadcast mode but survive at 8 clusters: within 5% of full-map",
			func(c *claimCtx) {
				for _, b := range everyBench {
					c.within("ablate-dir", b, "ncp5", 0.05, "ncp5-dir4B")
				}
			}},
	}},
	{spec: "ablate-migration", systems: "base origin vb vb+origin", claims: []claim{
		{"origin-beats-bare", "page migration/replication alone beats the bare machine on Barnes, Cholesky, FMM, LU, Radix and Raytrace",
			func(c *claimCtx) {
				c.below("ablate-migration", []string{"Barnes", "Cholesky", "FMM", "LU", "Radix", "Raytrace"}, "origin", "base")
			}},
		{"combination-best", "§7's conjecture: vb+origin < min(vb, origin) on Barnes, Cholesky, FMM, Radix, Raytrace; it ties origin on LU and stays within 1% of vb on FFT; on Ocean vb alone wins, vb+origin <= 1.8 x vb (Known deviation 9)",
			func(c *claimCtx) {
				for _, b := range everyBench {
					both := c.x("ablate-migration", b, "vb+origin")
					best := math.Min(c.x("ablate-migration", b, "vb"), c.x("ablate-migration", b, "origin"))
					switch b {
					case "Ocean":
						c.atMost("ablate-migration", []string{b}, "vb+origin", "vb", 1.8)
					case "FFT", "LU":
						if both > 1.01*best {
							c.errorf("%s: vb+origin %.3f above the better single mechanism %.3f", b, both, best)
						}
					default:
						if both >= best {
							c.errorf("%s: vb+origin %.3f not below the better single mechanism %.3f", b, both, best)
						}
					}
				}
			}},
	}},
	{spec: "ablate-contention", systems: "base-q NCD-q vb-q vbp5-q", claims: []claim{
		{"contention-only-lengthens", "contention can only lengthen stalls: base, NCD and vbp5 each stall at least as long as in fig9 (same infinite-DRAM normalization)",
			func(c *claimCtx) {
				for _, s := range []string{"base", "NCD", "vbp5"} {
					for _, b := range everyBench {
						if q, flat := c.x("ablate-contention", b, s+"-q"), c.x("fig9", b, s); q < flat {
							c.errorf("%s %s: contention-corrected %.3f below flat %.3f", b, s, q, flat)
						}
					}
				}
			}},
		{"winner-holds", "fig9's winner among base, NCD and vbp5 stays the winner under contention, except Raytrace, where it stays within 2% of NCD-q (Known deviation 4)",
			func(c *claimCtx) {
				systems := []string{"base", "NCD", "vbp5"}
				for _, b := range everyBench {
					win, best := "", math.Inf(1)
					for _, s := range systems {
						if x := c.x("fig9", b, s); x < best {
							win, best = s, x
						}
					}
					slack := 1.0
					if b == "Raytrace" {
						slack = 1.02
					}
					for _, s := range systems {
						c.atMost("ablate-contention", []string{b}, win+"-q", s+"-q", slack)
					}
				}
			}},
		{"ncd-radix-inflates-most", "DRAM NC hits occupy the loaded resources longest: NCD on Radix inflates at least 2x, the most of any cell",
			func(c *claimCtx) {
				inflate := func(b, s string) float64 { return c.x("ablate-contention", b, s+"-q") / c.x("fig9", b, s) }
				top := inflate("Radix", "NCD")
				if top < 2 {
					c.errorf("NCD Radix inflates %.2fx, want >= 2x", top)
				}
				for _, s := range []string{"base", "NCD", "vbp5"} {
					for _, b := range everyBench {
						if f := inflate(b, s); f > top {
							c.errorf("%s %s inflates %.2fx, above NCD Radix %.2fx", b, s, f, top)
						}
					}
				}
			}},
	}},
}

// TestFigureClaims runs every figure once at small scale and checks
// every claim; claims may compare figures.
func TestFigureClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every figure at small scale; run without -short")
	}
	opt := DefaultOptions()
	opt.Scale = workload.ScaleSmall
	got := map[string]Experiment{}
	for _, f := range Figures() {
		exp, err := f.Run(opt)
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		got[f.ID] = exp
	}
	for _, fc := range figureClaimTable {
		t.Run(fc.spec, func(t *testing.T) {
			if s := strings.Join(got[fc.spec].Systems, " "); s != fc.systems {
				t.Fatalf("bars = %q, want %q", s, fc.systems)
			}
			for _, cl := range fc.claims {
				t.Run(cl.name, func(t *testing.T) {
					t.Log(cl.text)
					cl.check(&claimCtx{t: t, got: got})
				})
			}
		})
	}
}

// TestEveryFigureHasClaims fails when a spec of Figures() has no claim,
// or a claim names a spec the table does not hold.
func TestEveryFigureHasClaims(t *testing.T) {
	claimed := map[string]bool{}
	for _, fc := range figureClaimTable {
		if len(fc.claims) == 0 {
			t.Errorf("%s: empty claim list", fc.spec)
		}
		claimed[fc.spec] = true
	}
	specs := map[string]bool{}
	for _, f := range Figures() {
		specs[f.ID] = true
		if !claimed[f.ID] {
			t.Errorf("figure %s has no claim", f.ID)
		}
	}
	for id := range claimed {
		if !specs[id] {
			t.Errorf("claims name %s, which Figures() does not hold", id)
		}
	}
}

// TestExperimentsDocTagsEveryClaim fails when EXPERIMENTS.md does not
// name a claim ID, so the prose cannot silently drop a checked claim.
func TestExperimentsDocTagsEveryClaim(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range figureClaimTable {
		for _, cl := range fc.claims {
			if id := fmt.Sprintf("`%s/%s`", fc.spec, cl.name); !strings.Contains(string(doc), id) {
				t.Errorf("EXPERIMENTS.md does not tag claim %s", id)
			}
		}
	}
}
