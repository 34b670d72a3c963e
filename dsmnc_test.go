package dsmnc

import (
	"errors"
	"testing"

	"dsmnc/memsys"
	"dsmnc/stats"
	"dsmnc/trace"
	"dsmnc/workload"
)

func testOptions() Options {
	opt := DefaultOptions()
	opt.Scale = workload.ScaleTest
	return opt
}

func mustRun(t *testing.T, b *workload.Bench, sys System, opt Options) Result {
	t.Helper()
	res, err := Run(b, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// figure looks up one entry of the figure table by ID.
func figure(t testing.TB, id string) Figure {
	t.Helper()
	for _, f := range Figures() {
		if f.ID == id {
			return f
		}
	}
	t.Fatalf("no figure %q in Figures()", id)
	return Figure{}
}

func mustExp(t *testing.T, id string, opt Options) Experiment {
	t.Helper()
	exp, err := figure(t, id).Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	opt := DefaultOptions()
	if opt.Geometry != (memsys.Geometry{Clusters: 8, ProcsPerCluster: 4}) {
		t.Fatalf("geometry %+v", opt.Geometry)
	}
	if opt.L1Bytes != 16<<10 || opt.L1Ways != 2 {
		t.Fatalf("L1 %d/%d-way", opt.L1Bytes, opt.L1Ways)
	}
	if opt.Latencies != stats.DefaultLatencies() {
		t.Fatal("latencies differ from Table 2")
	}
}

func TestSystemPresets(t *testing.T) {
	cases := []struct {
		sys  System
		tech stats.NCTech
	}{
		{Base(), stats.NCTechNone},
		{NCS(), stats.NCTechSRAM},
		{InfiniteDRAM(), stats.NCTechDRAM},
		{NCD(), stats.NCTechDRAM},
		{NC(16 << 10), stats.NCTechSRAM},
		{VB(16 << 10), stats.NCTechSRAM},
		{VP(16 << 10), stats.NCTechSRAM},
	}
	for _, c := range cases {
		if c.sys.Tech() != c.tech {
			t.Errorf("%s: tech = %v, want %v", c.sys.Name, c.sys.Tech(), c.tech)
		}
	}
	if NCD().NCBytes != 512<<10 {
		t.Fatal("NCD is not 512KB")
	}
	if s := VXPFrac(16<<10, 5, 64); s.Threshold != 64 || s.PCFraction != 5 {
		t.Fatalf("VXPFrac = %+v", s)
	}
	if s := NCPFrac(16<<10, 7); s.Name != "ncp7" || !s.Adaptive {
		t.Fatalf("NCPFrac = %+v", s)
	}
}

func TestRunProducesConsistentCounts(t *testing.T) {
	opt := testOptions()
	b := workload.FFT(opt.Scale)
	res := mustRun(t, b, Base(), opt)
	if res.Refs == 0 || res.Counters.Refs.Total() != res.Refs {
		t.Fatalf("refs %d vs counters %d", res.Refs, res.Counters.Refs.Total())
	}
	// Every reference is satisfied somewhere.
	c := &res.Counters
	satisfied := c.L1Hits.Total() + c.C2C.Total() + c.LocalC2C.Total() +
		c.NCHits.Total() + c.PCHits.Total() + c.LocalMem.Total() + c.Remote().Total()
	if satisfied != res.Refs {
		t.Fatalf("satisfied %d != refs %d", satisfied, res.Refs)
	}
	if res.System != "base" || res.Bench != "FFT" {
		t.Fatalf("labels %s/%s", res.System, res.Bench)
	}
}

func TestRunDeterministic(t *testing.T) {
	opt := testOptions()
	b := workload.Radix(opt.Scale)
	a := mustRun(t, b, VB(16<<10), opt)
	bb := mustRun(t, b, VB(16<<10), opt)
	if a.Counters != bb.Counters {
		t.Fatal("identical runs diverged")
	}
}

// Shape check: the victim cache can never make things worse than no NC
// (paper §3.1 — inclusion is never maintained), and an infinite SRAM NC
// leaves only necessary misses.
func TestVictimNeverWorseAndNCSOnlyNecessary(t *testing.T) {
	opt := testOptions()
	for _, b := range workload.All(opt.Scale) {
		base := mustRun(t, b, Base(), opt)
		vb := mustRun(t, b, VB(16<<10), opt)
		ncs := mustRun(t, b, NCS(), opt)

		br := base.Counters.Remote().Total()
		vr := vb.Counters.Remote().Total()
		// Allow a sliver of slack: mastership/downgrade interactions can
		// shift a handful of events.
		if float64(vr) > 1.02*float64(br)+50 {
			t.Errorf("%s: vb16 remote misses %d exceed base %d", b.Name, vr, br)
		}
		if cap := ncs.Counters.RemoteCapacity().Total(); cap != 0 {
			t.Errorf("%s: infinite NC left %d capacity misses", b.Name, cap)
		}
		// NCS absorbs victim write-backs; only coherence flushes (read
		// interventions on dirty blocks) may still cross the network.
		if ncs.Counters.WritebacksHome > base.Counters.WritebacksHome {
			t.Errorf("%s: infinite NC write-backs %d exceed base %d",
				b.Name, ncs.Counters.WritebacksHome, base.Counters.WritebacksHome)
		}
	}
}

// Shape check (Figure 4): the victim cache outperforms the
// dirty-inclusion nc organization, dramatically so on Radix.
func TestVictimBeatsInclusionOnRadix(t *testing.T) {
	opt := testOptions()
	b := workload.Radix(opt.Scale)
	nc := mustRun(t, b, NC(16<<10), opt)
	vb := mustRun(t, b, VB(16<<10), opt)
	ncMiss := nc.MissRatios().Total()
	vbMiss := vb.MissRatios().Total()
	if vbMiss >= ncMiss {
		t.Fatalf("Radix: vb %.3f%% not better than nc %.3f%%", vbMiss, ncMiss)
	}
}

// Shape check (Figure 9, FFT): with mostly necessary misses, no NC at
// all beats an infinite DRAM NC.
func TestFFTBaseBeatsInfiniteDRAM(t *testing.T) {
	opt := testOptions()
	b := workload.FFT(opt.Scale)
	base := mustRun(t, b, Base(), opt)
	inf := mustRun(t, b, InfiniteDRAM(), opt)
	if base.Stall().Total() >= inf.Stall().Total() {
		t.Fatalf("FFT: base stall %d not below infinite-DRAM stall %d",
			base.Stall().Total(), inf.Stall().Total())
	}
}

func TestPageCacheSystemsRelocate(t *testing.T) {
	// A 64 KB region streamed by every processor overflows the 16 KB
	// caches: repeated passes are pure remote capacity misses for the
	// seven non-home clusters, which must push the counters past the
	// threshold and earn page-cache hits.
	opt := testOptions()
	b := workload.RemoteStream(64<<10, 8)
	res := mustRun(t, b, NCPFrac(16<<10, 2), opt)
	if res.Counters.Relocations == 0 {
		t.Fatal("ncp never relocated a page on a thrashing remote stream")
	}
	if res.Counters.PCHits.Total() == 0 {
		t.Fatal("ncp page cache never hit")
	}
	// Page-cache hits must reduce remote misses relative to base.
	base := mustRun(t, b, Base(), opt)
	if res.Counters.Remote().Total() >= base.Counters.Remote().Total() {
		t.Fatal("page cache did not reduce remote misses")
	}
}

func TestVxpRelocates(t *testing.T) {
	opt := testOptions()
	b := workload.RemoteStream(64<<10, 8)
	// A full-size page cache (1/1 of the data set): pages relocate once
	// and then serve hits, isolating the vxp trigger path from LRM churn.
	res := mustRun(t, b, VXPFrac(16<<10, 1, 32), opt)
	if res.Counters.Relocations == 0 {
		t.Fatal("vxp never relocated")
	}
	if res.Counters.PCHits.Total() == 0 {
		t.Fatal("vxp page cache never hit")
	}
}

func TestBuildUnknownNCError(t *testing.T) {
	_, err := Build(workload.FFT(workload.ScaleTest), System{NC: NCKind(99)}, testOptions())
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("Build(unknown NC) error = %v, want ErrConfig", err)
	}
}

func TestTable3(t *testing.T) {
	opt := testOptions()
	rows := Table3(opt)
	if len(rows) != 8 {
		t.Fatalf("Table3 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Refs == 0 || r.OurMB <= 0 || r.PaperMB <= 0 {
			t.Errorf("row %+v incomplete", r)
		}
		if r.ReadPct <= 0 || r.ReadPct >= 100 {
			t.Errorf("%s: read%% = %v", r.Name, r.ReadPct)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, f := range Figures() {
		ids[f.ID] = true
	}
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
		if !ids[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
}

func TestFig9Normalization(t *testing.T) {
	opt := testOptions()
	exp := mustExp(t, "fig9", opt)
	if len(exp.Systems) != 9 {
		t.Fatalf("fig9 systems = %v", exp.Systems)
	}
	for _, row := range exp.Rows {
		for i, v := range row.Values {
			if v.Norm <= 0 {
				t.Errorf("%s/%s: norm = %v", row.Bench, exp.Systems[i], v.Norm)
			}
		}
		// NCS must be the best or near-best system everywhere.
		ncs := row.Values[1].Norm
		if ncs > 1.05 {
			t.Errorf("%s: NCS normalized stall %.3f > 1", row.Bench, ncs)
		}
	}
}

func TestValueTotal(t *testing.T) {
	v := Value{Read: 1, Write: 2, Reloc: 3}
	if v.Total() != 6 {
		t.Fatal("Value.Total")
	}
}

func TestFig3Structure(t *testing.T) {
	exp := mustExp(t, "fig3", testOptions())
	if len(exp.Systems) != 9 {
		t.Fatalf("fig3 systems = %v, want 3 assoc x 3 NC sizes", exp.Systems)
	}
	if exp.Systems[0] != "1w-vb0" || exp.Systems[8] != "4w-vb16" {
		t.Fatalf("fig3 labels = %v", exp.Systems)
	}
	for _, row := range exp.Rows {
		if len(row.Values) != 9 {
			t.Fatalf("%s: %d values", row.Bench, len(row.Values))
		}
		// More associativity with the same NC must not increase misses
		// much (allow small protocol-noise slack).
		v1w := row.Values[0].Total()
		v4w := row.Values[6].Total()
		if v4w > v1w*1.10+0.2 {
			t.Errorf("%s: 4-way (%.3f) much worse than direct-mapped (%.3f)", row.Bench, v4w, v1w)
		}
	}
}

func TestFig6Structure(t *testing.T) {
	exp := mustExp(t, "fig6", testOptions())
	want := []string{"ncp5-adaptive", "ncp5-fixed32", "ncp20-adaptive", "ncp20-fixed32"}
	if len(exp.Systems) != len(want) {
		t.Fatalf("fig6 systems = %v", exp.Systems)
	}
	for i, w := range want {
		if exp.Systems[i] != w {
			t.Fatalf("fig6 systems = %v", exp.Systems)
		}
	}
	// The adaptive policy never does worse than fixed on the stacked
	// total (it only suppresses relocations).
	for _, row := range exp.Rows {
		if a, f := row.Values[2].Total(), row.Values[3].Total(); a > f*1.15+0.2 {
			t.Errorf("%s: adaptive (%.3f) worse than fixed (%.3f) at 1/20", row.Bench, a, f)
		}
	}
}

func TestFig7Structure(t *testing.T) {
	exp := mustExp(t, "fig7", testOptions())
	if len(exp.Systems) != 12 {
		t.Fatalf("fig7 systems = %v", exp.Systems)
	}
	for _, row := range exp.Rows {
		// The victim NC columns must not exceed the no-NC columns at the
		// same page-cache size (the paper's Figure 7 ordering), modulo
		// small noise.
		for i := 0; i < 4; i++ {
			pcOnly := row.Values[i].Total()
			vbp := row.Values[8+i].Total()
			if vbp > pcOnly*1.10+0.2 {
				t.Errorf("%s[%d]: vbp %.3f worse than pc-only %.3f", row.Bench, i, vbp, pcOnly)
			}
		}
	}
}

func TestFig11Structure(t *testing.T) {
	exp := mustExp(t, "fig11", testOptions())
	if len(exp.Systems) != 3 {
		t.Fatalf("fig11 systems = %v", exp.Systems)
	}
	for _, row := range exp.Rows {
		for i, v := range row.Values {
			if v.Norm <= 0 {
				t.Errorf("%s/%s: norm %v", row.Bench, exp.Systems[i], v.Norm)
			}
		}
	}
}

func TestAblationOStateNeverWorseOnWritebacks(t *testing.T) {
	// The O state exists to remove downgrade write-backs; the MOESIR
	// system must never generate more network write-backs than MESIR.
	opt := testOptions()
	for _, name := range []string{"Ocean", "Radix"} {
		b := workload.ByName(name, opt.Scale)
		mesir := mustRun(t, b, VB(16<<10), opt)
		mo := VB(16 << 10)
		mo.MOESI = true
		moesir := mustRun(t, b, mo, opt)
		if moesir.Counters.DowngradeWB != 0 {
			t.Errorf("%s: MOESI counted %d downgrade write-backs", name, moesir.Counters.DowngradeWB)
		}
		// The dirty data reaches home either way — MESI at downgrade
		// time, MOESI at O-victimization time — so totals should agree
		// within protocol-timing noise (the paper's "very little
		// benefit").
		hi := float64(mesir.Counters.WritebacksHome)*1.10 + 50
		if float64(moesir.Counters.WritebacksHome) > hi {
			t.Errorf("%s: MOESI write-backs %d far above MESI %d", name,
				moesir.Counters.WritebacksHome, mesir.Counters.WritebacksHome)
		}
	}
}

func TestAlternateGeometries(t *testing.T) {
	// Nothing may assume the paper's 8x4: run a quick workload over
	// several topologies.
	for _, geo := range []memsys.Geometry{
		{Clusters: 2, ProcsPerCluster: 2},
		{Clusters: 4, ProcsPerCluster: 8},
		{Clusters: 16, ProcsPerCluster: 2},
	} {
		opt := testOptions()
		opt.Geometry = geo
		b := workload.RemoteStream(32<<10, 2)
		res := mustRun(t, b, VB(16<<10), opt)
		if res.Refs == 0 {
			t.Errorf("%+v: no refs", geo)
		}
		if len(res.PerCluster) != geo.Clusters {
			t.Errorf("%+v: PerCluster = %d", geo, len(res.PerCluster))
		}
		var sum int64
		for _, cc := range res.PerCluster {
			sum += cc.Refs.Total()
		}
		if sum != res.Refs {
			t.Errorf("%+v: per-cluster refs %d != total %d", geo, sum, res.Refs)
		}
	}
}

func TestRunTraceMatchesRun(t *testing.T) {
	// Driving the machine from a materialized trace must reproduce the
	// generator-driven run exactly.
	opt := testOptions()
	b := workload.FFT(opt.Scale)
	direct := mustRun(t, b, VB(16<<10), opt)
	var refs []trace.Ref
	b.Emit(opt.Geometry, opt.Quantum, func(r trace.Ref) { refs = append(refs, r) })
	viaTrace, err := RunTrace(trace.NewSliceSource(refs), "fft-trace", b.SharedBytes, VB(16<<10), opt)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Counters != viaTrace.Counters {
		t.Fatal("trace-driven run diverged from generator-driven run")
	}
}

func TestOriginSystem(t *testing.T) {
	opt := testOptions()
	b := workload.Raytrace(opt.Scale) // read-shared scene: replication territory
	res := mustRun(t, b, Origin(), opt)
	if res.Counters.Replications == 0 {
		t.Fatal("Origin never replicated the read-only scene")
	}
	if res.Counters.ReplicaHits.Total() == 0 {
		t.Fatal("replicas never served a read")
	}
	base := mustRun(t, b, Base(), opt)
	if res.Counters.Remote().Total() >= base.Counters.Remote().Total() {
		t.Fatal("replication did not reduce remote misses")
	}
}
