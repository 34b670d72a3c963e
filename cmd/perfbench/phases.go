package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"dsmnc"
	"dsmnc/serve"
	"dsmnc/trace"
	"dsmnc/workload"
)

// phase is one measured phase of a served workload.
type phase struct {
	outs          []outcome
	ok            []*outcome // the successful outcomes
	wall          time.Duration
	before, after map[string]float64 // server counters around the phase
}

func (p *phase) delta(name string) float64 { return p.after[name] - p.before[name] }

func (p *phase) jobsPerS() float64 { return float64(len(p.ok)) / p.wall.Seconds() }

// runPhase drives one phase of d against the stack.
func runPhase(st stack, d time.Duration, next func() cell, keep func(int) bool, rec *recorder) (*phase, error) {
	p := &phase{}
	var err error
	if p.before, err = st.counters(); err != nil {
		return nil, err
	}
	p.outs, p.wall = drive(st.coord.addr, clients, until(d, next), keep, rec)
	if p.after, err = st.counters(); err != nil {
		return nil, err
	}
	for i := range p.outs {
		if p.outs[i].fail == "" {
			p.ok = append(p.ok, &p.outs[i])
		}
	}
	return p, nil
}

// servedResult is a GET /result answer.
type servedResult struct {
	Status serve.Status `json:"status"`
	Result dsmnc.Result `json:"result"`
}

// sampled is one served request whose cell was re-run in process.
type sampled struct {
	o       *outcome
	runCell time.Duration // wall time of the in-process dsmnc.RunCell
	traced  cellRun       // the traced cell runner's measurements, when traced
}

// checkPhase accounts a phase's operations in res and checks its
// outputs: every kept result is done, names its cell and applied its
// benchmark's reference count, and a seeded sample equals an in-process
// dsmnc.RunCell of the same cell (re-run through the traced cell runner
// too when traced). It returns the kept results' counters and the
// sample.
func checkPhase(e *env, res *result, p *phase, refsOf map[string]int64, traced bool) (layerCounts, []sampled) {
	fails := map[string]int{}
	for _, o := range p.outs {
		res.attempted++
		if o.fail != "" {
			res.failed++
			fails[o.fail]++
		}
	}
	if len(fails) > 0 {
		fmt.Printf("failed operations by class: %v\n", fails)
	}
	var counts layerCounts
	var kept []*outcome
	results := map[*outcome]dsmnc.Result{}
	for _, o := range p.ok {
		if o.body == nil {
			continue
		}
		var sr servedResult
		if err := json.Unmarshal(o.body, &sr); err != nil {
			res.failed++
			res.chk.failf("result of %s/%s: %v", o.cell.Bench, o.cell.Kind, err)
			continue
		}
		r := sr.Result
		if sr.Status.State != serve.StateDone || r.Bench != o.cell.Bench || r.System != o.cell.system().Name || r.Refs != refsOf[o.cell.Bench] {
			res.failed++
			res.chk.failf("result of %+v: state %s, bench %s, system %s, %d refs (want %d)",
				o.cell, sr.Status.State, r.Bench, r.System, r.Refs, refsOf[o.cell.Bench])
			continue
		}
		counts.add(r.Refs, r.Counters)
		kept = append(kept, o)
		results[o] = r
	}

	opt := dsmnc.DefaultOptions()
	opt.Scale = workload.ScaleTest
	r := newRand(e.seed, streamSample)
	var sample []sampled
	for _, i := range r.Perm(len(kept))[:min(sampleCells, len(kept))] {
		o := kept[i]
		b := workload.ByName(o.cell.Bench, opt.Scale)
		t0 := time.Now()
		want, err := dsmnc.RunCell(context.Background(), "", b, o.cell.system(), opt)
		s := sampled{o: o, runCell: time.Since(t0)}
		if err == nil {
			if d := diffResult(results[o], want.Refs, want.Counters); d != "" {
				err = fmt.Errorf("differs from an in-process RunCell: %s", d)
			}
		}
		if err == nil && traced {
			if s.traced, err = runTracedCell(nil, 0, b, o.cell.system(), opt); err == nil {
				got := dsmnc.Result{Refs: s.traced.refs, Counters: s.traced.counters}
				if d := diffResult(got, want.Refs, want.Counters); d != "" {
					err = fmt.Errorf("traced cell runner differs from RunCell: %s", d)
				}
			}
		}
		if err != nil {
			res.failed++
			res.chk.failf("served %+v: %v", o.cell, err)
			continue
		}
		sample = append(sample, s)
	}
	return counts, sample
}

// benchRefs counts each benchmark's references at scale by generating
// its trace: every organization of a cell must apply exactly as many.
func benchRefs(scale workload.Scale) map[string]int64 {
	opt := dsmnc.DefaultOptions()
	out := map[string]int64{}
	for _, b := range workload.All(scale) {
		var n int64
		b.EmitBatch(opt.Geometry, opt.Quantum, func(refs []trace.Ref) { n += int64(len(refs)) })
		out[b.Name] = n
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// meanMS averages f over outcomes, in milliseconds.
func meanMS(outs []*outcome, f func(*outcome) time.Duration) float64 {
	if len(outs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, o := range outs {
		sum += f(o)
	}
	return msOf(sum) / float64(len(outs))
}

// servedPhases runs a served workload's measured phase and reports its
// end-to-end metrics; traced, it runs a second, traced phase and reports
// the per-layer metrics instead.
func servedPhases(e *env, res *result, st stack, spec servedSpec, next func() cell) error {
	refsOf := benchRefs(workload.ScaleTest)
	// Replayed results repeat: keep the first pass over the cells.
	keep := func(i int) bool { return i < replayCells }
	if spec.fresh {
		keep = func(int) bool { return true }
	}
	p, err := runPhase(st, e.seconds, next, keep, nil)
	if err != nil {
		return err
	}
	rss, err := st.rss()
	if err != nil {
		return err
	}
	if !spec.fresh && p.delta("dsmnc_serve_done_total") != 0 {
		res.chk.failf("%s ran %g simulations while measured", spec.name, p.delta("dsmnc_serve_done_total"))
	}
	checkPhase(e, res, p, refsOf, false)

	var lat []float64
	for _, o := range p.ok {
		lat = append(lat, msOf(o.latency()))
	}
	res.put("jobs_per_s", p.jobsPerS())
	res.put("latency_p50_ms", percentile(lat, 50))
	res.put("latency_tail_ms", percentile(lat, spec.tailP))
	res.put("peak_rss_mb", rss)
	checkTail(&res.chk, spec.name, len(lat), spec.tailP)
	fmt.Printf("%s: %d requests in %.2fs; tail = p%g with %d of %d samples beyond it\n",
		spec.name, len(p.outs), p.wall.Seconds(), spec.tailP, beyond(len(lat), spec.tailP), len(lat))
	if !e.traced {
		return nil
	}

	rec := newRecorder()
	tp, err := runPhase(st, e.seconds, next, keep, rec)
	if err != nil {
		return err
	}
	if !spec.fresh && tp.delta("dsmnc_serve_done_total") != 0 {
		res.chk.failf("%s ran %g simulations while measured", spec.name, tp.delta("dsmnc_serve_done_total"))
	}
	counts, sample := checkPhase(e, res, tp, refsOf, true)
	httpMS, err := exchangeMS(st.coord.addr)
	if err != nil {
		return err
	}
	spans := rec.snapshot()
	if err := writeSpans(e, spec.name, spans); err != nil {
		return err
	}
	reportServedLayers(res, spec, p, tp, counts, sample, httpMS)
	printAttribution(spec.name+", ms per request", selfTimes(spans), float64(len(tp.ok)), meanMS(p.ok, (*outcome).latency))
	return nil
}

// reportServedLayers derives a served workload's per-layer metrics from
// its untraced phase p and traced phase tp.
func reportServedLayers(res *result, spec servedSpec, p, tp *phase, counts layerCounts, sample []sampled, httpMS float64) {
	var fresh []*outcome
	for _, o := range tp.ok {
		if o.fresh() {
			fresh = append(fresh, o)
		}
	}
	res.put("serve.submit_ms", meanMS(tp.ok, func(o *outcome) time.Duration { return o.post.Sub(o.t0) }))
	res.put("serve.queue_wait_ms", meanMS(fresh, func(o *outcome) time.Duration { return o.status.Started.Sub(o.status.Queued) }))
	res.put("serve.run_ms", meanMS(fresh, func(o *outcome) time.Duration { return o.status.Finished.Sub(o.status.Started) }))
	res.put("serve.notify_lag_ms", meanMS(fresh, func(o *outcome) time.Duration { return o.term.Sub(o.status.Finished) }))
	submitted, deduped := tp.delta("dsmnc_serve_submitted_total"), tp.delta("dsmnc_serve_deduped_total")
	res.put("serve.dedup_frac", ratio(deduped, submitted+deduped))
	res.put("serve.shed", tp.delta("dsmnc_serve_shed_total"))
	res.put("serve.reassigned", tp.delta("dsmnc_serve_reassigned_total"))
	res.put("dsmserved.result_fetch_ms", meanMS(tp.ok, func(o *outcome) time.Duration { return o.end.Sub(o.get) }))
	var kb float64
	for _, o := range tp.ok {
		kb += float64(o.bodyLen) / 1024
	}
	res.put("dsmserved.result_kb", ratio(kb, float64(len(tp.ok))))
	exchanges := 2.0 // POST, GET /result
	if spec.fresh {
		exchanges = 3 // and GET /stream
	}
	res.put("dsmserved.http_self_ms", httpMS*exchanges)
	res.put("trace.overhead_frac", p.jobsPerS()/tp.jobsPerS()-1)

	if !spec.fresh {
		// Replay runs no cells while measured: generation, application
		// and the subsystems are off its path.
		return
	}
	counts.metrics(res.put)
	var gen, apply, lat, hop time.Duration
	var refs int64
	for _, s := range sample {
		gen += s.traced.gen
		apply += s.traced.apply
		refs += s.traced.refs
		lat += s.o.latency()
		hop += s.o.status.Finished.Sub(s.o.status.Started) - s.runCell
	}
	res.put("workload.gen_ns_per_ref", ratio(float64(gen.Nanoseconds()), float64(refs)))
	res.put("workload.gen_share", ratio(gen.Seconds(), lat.Seconds()))
	res.put("sim.apply_ns_per_ref", ratio(float64(apply.Nanoseconds()), float64(refs)))
	res.put("sim.apply_share", ratio(apply.Seconds(), lat.Seconds()))
	if !spec.fleet {
		return
	}
	res.put("fleet.hop_overhead_ms", ratio(msOf(hop), float64(len(sample))))
	res.put("fleet.lease_lost", tp.delta("dsmnc_serve_lease_lost_total"))
	res.put("worker.joined", tp.delta("dsmnc_serve_worker_joined_total"))
	res.put("worker.shed", tp.delta("dsmnc_serve_worker_shed_total"))
	res.put("worker.stale", tp.delta("dsmnc_serve_worker_stale_total"))
	reportWire(res, tp)
}

// reportWire times the fleet wire codec on the phase's own requests and
// results.
func reportWire(res *result, tp *phase) {
	var reqEnc, reqDec, resEnc, resDec time.Duration
	var bytes, n int
	for _, o := range tp.ok {
		if o.body == nil {
			continue
		}
		var sr servedResult
		if json.Unmarshal(o.body, &sr) != nil {
			continue
		}
		id := o.status.ID
		wreq := serve.WireRequest{ID: id, Attempt: 1, Epoch: 1, Fingerprint: id, Request: o.cell.request(servedScale)}
		wres := serve.WireResult{ID: id, Epoch: 1, State: serve.StateDone, Result: &sr.Result}
		var reqData, resData []byte
		t := time.Now()
		for range wireReps {
			reqData, _ = wreq.Encode()
		}
		reqEnc += time.Since(t)
		t = time.Now()
		for range wireReps {
			_, _ = serve.ParseWireRequest(reqData)
		}
		reqDec += time.Since(t)
		t = time.Now()
		for range wireReps {
			resData, _ = wres.Encode()
		}
		resEnc += time.Since(t)
		t = time.Now()
		for range wireReps {
			_, _ = serve.ParseWireResult(resData)
		}
		resDec += time.Since(t)
		bytes += len(resData)
		n++
	}
	calls := float64(n * wireReps)
	us := func(d time.Duration) float64 { return ratio(float64(d.Nanoseconds())/1e3, calls) }
	res.put("wire.req_encode_us", us(reqEnc))
	res.put("wire.req_decode_us", us(reqDec))
	res.put("wire.res_encode_us", us(resEnc))
	res.put("wire.res_decode_us", us(resDec))
	res.put("wire.res_kb", ratio(float64(bytes)/1024, float64(n)))
}

// exchangeMS is the mean round trip of an HTTP exchange with no work
// behind it (GET /healthz on a kept-alive connection).
func exchangeMS(addr string) (float64, error) {
	c := newClient(addr)
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	t := time.Now()
	for range healthzReps {
		if code, _, err := c.call(ctx, "GET", "/healthz", nil); err != nil || code != 200 {
			return 0, fmt.Errorf("healthz: %d %v", code, err)
		}
	}
	return msOf(time.Since(t)) / healthzReps, nil
}
