package dsmnc

// Micro-benchmarks of the simulator: Table 3's trace volumes, raw
// simulation and trace-generation throughput, and the per-reference
// cost of the Apply hot path. Figure sweeps are measured end to end by
// cmd/perfbench's sweep workload, not here. Run one with e.g.
//
//	go test -run '^$' -bench=BenchmarkSimulator -benchtime=1x

import (
	"testing"

	"dsmnc/telemetry"
	"dsmnc/trace"
	"dsmnc/workload"
)

func benchOptions() Options {
	opt := DefaultOptions()
	opt.Scale = workload.ScaleSmall
	return opt
}

// BenchmarkTable3 regenerates Table 3 (benchmark characteristics).
func BenchmarkTable3(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if rows := Table3(opt); len(rows) != 8 {
			b.Fatal("table3 incomplete")
		}
	}
}

// BenchmarkSimulator measures raw simulation throughput per system class
// on one representative workload, in references per second.
func BenchmarkSimulator(b *testing.B) {
	systems := []System{Base(), VB(16 << 10), NCD(), VBPFrac(16<<10, 5), VXPFrac(16<<10, 5, 32)}
	bench := workload.Ocean(benchOptions().Scale)
	opt := benchOptions()
	for _, sys := range systems {
		sys := sys
		b.Run(sys.Name, func(b *testing.B) {
			var refs int64
			for i := 0; i < b.N; i++ {
				res, err := Run(bench, sys, opt)
				if err != nil {
					b.Fatal(err)
				}
				refs += res.Refs
			}
			b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// BenchmarkWorkloadGeneration measures trace-generation throughput alone
// (no simulation), per benchmark.
func BenchmarkWorkloadGeneration(b *testing.B) {
	opt := benchOptions()
	for _, name := range workload.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			var refs int64
			for i := 0; i < b.N; i++ {
				wl := workload.ByName(name, opt.Scale)
				wl.Emit(opt.Geometry, opt.Quantum, func(trace.Ref) { refs++ })
			}
			b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
		})
	}
}

// BenchmarkApplyHotPath measures the per-reference cost of the full
// system (L1 + bus + NC + directory) on an L1-hit-heavy stream.
func BenchmarkApplyHotPath(b *testing.B) {
	opt := benchOptions()
	machine, err := Build(workload.Sequential(1024, 1), VB(16<<10), opt)
	if err != nil {
		b.Fatal(err)
	}
	r := trace.Ref{PID: 0, Op: trace.Read, Addr: 0}
	machine.Apply(r) // warm the line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine.Apply(r)
	}
}

// BenchmarkApplyHotPathSampled measures the same stream with the
// time-series sampler attached at the acceptance cadence
// (-sample-every 100000), so sampling overhead shows up as a direct
// delta against BenchmarkApplyHotPath in the same
// `go test -run '^$' -bench ApplyHotPath` run.
func BenchmarkApplyHotPathSampled(b *testing.B) {
	opt := benchOptions()
	opt.Sampler = telemetry.NewSampler(100000, telemetry.DefaultCapacity)
	machine, err := Build(workload.Sequential(1024, 1), VB(16<<10), opt)
	if err != nil {
		b.Fatal(err)
	}
	r := trace.Ref{PID: 0, Op: trace.Read, Addr: 0}
	machine.Apply(r) // warm the line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine.Apply(r)
	}
}
