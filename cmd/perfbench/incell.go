package main

import (
	"fmt"
	"time"

	"dsmnc"
	"dsmnc/stats"
	"dsmnc/trace"
	"dsmnc/workload"
)

// chunkRefs is how many generated references the traced cell runner
// buffers before applying them. Large enough that two clock reads per
// chunk cost nothing next to the chunk, small enough to stay in cache.
const chunkRefs = 4096

// cellRun is what the traced cell runner measured for one cell.
type cellRun struct {
	refs                     int64
	counters                 stats.Counters
	build, gen, apply, total time.Duration
}

// runTracedCell runs one cell the way dsmnc.RunCell's fresh-run path
// does — dsmnc.Build, then Bench.EmitBatch feeding ApplyBatch — but
// buffers the generated references into chunks so generation and
// application can be timed apart. Spans go to rec (when non-nil) under
// request id req: a dsmnc.cell root with dsmnc.build and workload.gen
// children, and one sim.apply child of workload.gen per chunk.
func runTracedCell(rec *recorder, req int64, b *workload.Bench, sys dsmnc.System, opt dsmnc.Options) (cellRun, error) {
	var out cellRun
	t0 := time.Now()
	m, err := dsmnc.Build(b, sys, opt)
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	type chunk struct{ start, end time.Time }
	var chunks []chunk
	buf := make([]trace.Ref, 0, chunkRefs)
	var applyErr error
	flush := func() {
		if len(buf) == 0 || applyErr != nil {
			return
		}
		a := time.Now()
		_, applyErr = m.ApplyBatch(buf)
		chunks = append(chunks, chunk{a, time.Now()})
		buf = buf[:0]
	}
	b.EmitBatch(opt.Geometry, opt.Quantum, func(refs []trace.Ref) {
		for len(refs) > 0 {
			n := min(cap(buf)-len(buf), len(refs))
			buf = append(buf, refs[:n]...)
			refs = refs[n:]
			if len(buf) == cap(buf) {
				flush()
			}
		}
	})
	flush()
	t2 := time.Now()
	if applyErr != nil {
		return out, fmt.Errorf("%s/%s: %w", b.Name, sys.Name, applyErr)
	}
	out.refs = m.RefsApplied()
	out.counters = m.Totals()
	t3 := time.Now()

	for _, c := range chunks {
		out.apply += c.end.Sub(c.start)
	}
	out.build, out.gen, out.total = t1.Sub(t0), t2.Sub(t1)-out.apply, t3.Sub(t0)
	if rec != nil {
		root := rec.add(req, 0, "dsmnc.cell", t0, t3)
		rec.add(req, root, "dsmnc.build", t0, t1)
		gen := rec.add(req, root, "workload.gen", t1, t2)
		for _, c := range chunks {
			rec.add(req, gen, "sim.apply", c.start, c.end)
		}
	}
	return out, nil
}

// layerCounts accumulates the simulated events of many cells, from
// which the per-subsystem rates are derived. They repeat exactly for a
// given seed.
type layerCounts struct {
	refs int64
	c    stats.Counters
}

func (l *layerCounts) add(refs int64, c stats.Counters) {
	l.refs += refs
	l.c.Add(&c)
}

// metrics renders the per-subsystem rates: fractions of references, or
// events per thousand references.
func (l *layerCounts) metrics(put func(name string, v float64)) {
	refs := float64(l.refs)
	perK := func(n int64) float64 { return ratio(float64(n)*1000, refs) }
	c := &l.c
	put("cache.l1_hit_frac", ratio(float64(c.L1Hits.Total()), refs))
	put("bus.txn_per_kref", perK(c.BusTransactions()))
	put("core.nc_hit_per_kref", perK(c.NCHits.Total()))
	put("core.nc_insert_per_kref", perK(c.NCInserts))
	put("pagecache.hit_per_kref", perK(c.PCHits.Total()))
	put("pagecache.reloc_per_kref", perK(c.Relocations))
	put("directory.remote_per_kref", perK(c.Remote().Total()))
	put("directory.upgrade_per_kref", perK(c.Upgrades.Total()))
}
