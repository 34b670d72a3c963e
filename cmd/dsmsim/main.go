// Command dsmsim runs a single (workload, system) simulation and prints
// the full event account and the paper's derived metrics.
//
// Usage:
//
//	dsmsim -bench Radix -system vbp5 [-scale medium]
//	dsmsim -bench FFT -system vb -ncbytes 1024
//	dsmsim -list
//
// Systems: base, NCS, NCD, infDRAM, nc, vb, vp, ncp, vbp, vpp, pconly
// and vxp; the page-cache systems take -pcfrac (1/N of the data set) or
// -pcbytes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dsmnc"
	"dsmnc/memsys"
	"dsmnc/telemetry"
	"dsmnc/trace"
	"dsmnc/workload"
)

func main() {
	var (
		bench      = flag.String("bench", "FFT", "benchmark name (see -list)")
		traceFile  = flag.String("trace", "", "drive the simulation from a binary trace file instead of -bench")
		system     = flag.String("system", "vb", "system name")
		scale      = flag.String("scale", "small", "workload scale: test|small|medium|large")
		ncBytes    = flag.Int("ncbytes", 16<<10, "network cache size in bytes")
		pcFrac     = flag.Int("pcfrac", 5, "page cache size as 1/N of the data set")
		pcBytes    = flag.Int64("pcbytes", 0, "page cache size in bytes (overrides -pcfrac)")
		threshold  = flag.Uint("threshold", 32, "initial relocation threshold")
		fixed      = flag.Bool("fixed", false, "use a fixed (non-adaptive) threshold")
		moesi      = flag.Bool("moesi", false, "enable the dirty-shared O state (paper §3.2 option)")
		decrement  = flag.Bool("decrement", false, "decrement relocation counters on false invalidations (§3.4)")
		dirPtrs    = flag.Int("dirptrs", 0, "use a Dir_iB limited-pointer directory with this many pointers")
		migrate    = flag.Bool("migrate", false, "enable OS page migration/replication (SGI-Origin style)")
		checkInv   = flag.Bool("check", false, "attach the coherence invariant checker (fails on the first protocol violation)")
		perCluster = flag.Bool("percluster", false, "print the per-cluster event breakdown")
		progress   = flag.Duration("progress", 0, "print a progress heartbeat at this interval (e.g. 10s); 0 disables")
		list       = flag.Bool("list", false, "list benchmarks and systems")

		sampleEvery = flag.Int64("sample-every", 0, "record a time-series sample every N applied references; 0 disables")
		sampleOut   = flag.String("sample-out", "", "write the sample series here (.csv for CSV, anything else JSONL)")
		sampleCap   = flag.Int("sample-cap", telemetry.DefaultCapacity, "retain at most this many samples (oldest dropped)")
		traceOut    = flag.String("trace-out", "", "write a binary coherence event trace here (render with dsmtrace)")
		traceEvery  = flag.Int64("trace-every", 1, "keep every Nth coherence event in -trace-out")
		metricsAddr = flag.String("metrics", "", "serve Prometheus metrics and pprof on this address (e.g. :9090, :0 for a free port)")
	)
	flag.Parse()

	if *list {
		fmt.Println("benchmarks:")
		for _, n := range workload.Names() {
			fmt.Printf("  %s\n", n)
		}
		fmt.Println("systems: base NCS NCD infDRAM nc vb vp ncp vbp vpp pconly vxp")
		return
	}

	opt := dsmnc.DefaultOptions()
	var err error
	if opt.Scale, err = workload.ParseScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "dsmsim: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	b := workload.ByName(*bench, opt.Scale)
	if b == nil {
		fmt.Fprintf(os.Stderr, "dsmsim: unknown benchmark %q (try -list)\n", *bench)
		os.Exit(2)
	}

	var sys dsmnc.System
	switch *system {
	case "base":
		sys = dsmnc.Base()
	case "NCS", "ncs":
		sys = dsmnc.NCS()
	case "NCD", "ncd":
		sys = dsmnc.NCD()
	case "infDRAM", "infdram":
		sys = dsmnc.InfiniteDRAM()
	case "nc":
		sys = dsmnc.NC(*ncBytes)
	case "vb":
		sys = dsmnc.VB(*ncBytes)
	case "vp":
		sys = dsmnc.VP(*ncBytes)
	case "ncp":
		sys = dsmnc.NCPFrac(*ncBytes, *pcFrac)
	case "vbp":
		sys = dsmnc.VBPFrac(*ncBytes, *pcFrac)
	case "vpp":
		sys = dsmnc.VPPFrac(*ncBytes, *pcFrac)
	case "pconly":
		sys = dsmnc.PCOnly(*pcFrac)
	case "vxp":
		sys = dsmnc.VXPFrac(*ncBytes, *pcFrac, uint32(*threshold))
	default:
		fmt.Fprintf(os.Stderr, "dsmsim: unknown system %q\n", *system)
		os.Exit(2)
	}
	if *pcBytes > 0 && sys.PCFraction > 0 {
		sys.PCFraction = 0
		sys.PCBytes = *pcBytes
	}
	if sys.PCFraction > 0 || sys.PCBytes > 0 {
		sys.Threshold = uint32(*threshold)
		sys.Adaptive = !*fixed
	}
	sys.MOESI = *moesi
	sys.DecrementCounters = *decrement
	sys.DirPointers = *dirPtrs
	sys.Migration = *migrate
	opt.Check = *checkInv
	if *progress > 0 || *metricsAddr != "" {
		opt.Progress = &dsmnc.Progress{}
	}
	if *progress > 0 {
		stop := opt.Progress.Heartbeat(os.Stderr, *progress)
		defer stop()
	}

	if *sampleEvery > 0 || *sampleOut != "" {
		if *sampleEvery <= 0 {
			*sampleEvery = 100000
		}
		opt.Sampler = telemetry.NewSampler(*sampleEvery, *sampleCap).WithClock(time.Now)
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsmsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		tracer = telemetry.NewTracer(f, *traceEvery)
		opt.EventTrace = tracer
	}
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		fatalIf(telemetry.RegisterRuntimeMetrics(reg))
		fatalIf(opt.Progress.RegisterMetrics(reg))
		if opt.Sampler != nil {
			fatalIf(telemetry.RegisterSamplerMetrics(reg, opt.Sampler))
		}
		srv, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsmsim: metrics endpoint: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "dsmsim: serving metrics on %s (%s)\n", srv.Addr(), srv.URL())
	}

	var res dsmnc.Result
	if *traceFile != "" {
		res, err = runTraceFile(*traceFile, sys, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsmsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace     : %s\n", *traceFile)
	} else {
		res, err = dsmnc.Run(b, sys, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsmsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchmark : %s (%s), %.2f MB shared (paper: %.2f MB)\n",
			b.Name, b.Params, float64(b.SharedBytes)/(1<<20), b.PaperMB)
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dsmsim: event trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dsmsim: %s: kept %d of %d coherence events\n",
			*traceOut, tracer.Kept(), tracer.Seen())
	}
	if *sampleOut != "" {
		if err := writeSamples(*sampleOut, opt.Sampler); err != nil {
			fmt.Fprintf(os.Stderr, "dsmsim: sample series: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dsmsim: %s: %d samples (%d dropped by the ring)\n",
			*sampleOut, opt.Sampler.Len(), opt.Sampler.Dropped())
	}
	c := &res.Counters
	fmt.Printf("system    : %s   scale: %s   refs: %d\n\n", sys.Name, opt.Scale, res.Refs)

	fmt.Printf("references      : %10d reads  %10d writes\n", c.Refs.Read, c.Refs.Write)
	fmt.Printf("L1 hits         : %10d reads  %10d writes\n", c.L1Hits.Read, c.L1Hits.Write)
	fmt.Printf("cache-to-cache  : %10d remote %10d local-home\n", c.C2C.Total(), c.LocalC2C.Total())
	fmt.Printf("NC hits         : %10d reads  %10d writes\n", c.NCHits.Read, c.NCHits.Write)
	fmt.Printf("PC hits         : %10d reads  %10d writes\n", c.PCHits.Read, c.PCHits.Write)
	fmt.Printf("local memory    : %10d\n", c.LocalMem.Total())
	fmt.Printf("remote accesses : %10d  (cold %d, coherence %d, capacity %d)\n",
		c.Remote().Total(),
		c.RemoteByClass[0].Total(), c.RemoteByClass[1].Total(), c.RemoteByClass[2].Total())
	fmt.Printf("upgrades        : %10d\n", c.Upgrades.Total())
	fmt.Printf("writebacks home : %10d   downgrades: %d\n", c.WritebacksHome, c.DowngradeWB)
	fmt.Printf("NC inserts/evts : %10d / %d   forced L1 evictions: %d\n",
		c.NCInserts, c.NCEvictions, c.NCForcedL1Evict)
	fmt.Printf("relocations     : %10d   page evictions: %d   threshold raises: %d\n\n",
		c.Relocations, c.PageEvictions, c.ThresholdRaises)

	r := res.MissRatios()
	fmt.Printf("miss ratio      : %.3f%% read + %.3f%% write + %.3f%% reloc = %.3f%%\n",
		r.ReadMissPct, r.WriteMissPct, r.RelocPct, r.Total())
	s := res.Stall()
	fmt.Printf("remote rd stall : %d cycles memory + %d cycles relocation = %d\n",
		s.Memory, s.Relocation, s.Total())
	tr := res.Traffic()
	fmt.Printf("remote traffic  : %d blocks (%d rd, %d wr, %d wb)\n",
		tr.Total(), tr.ReadMisses, tr.WriteMisses, tr.Writebacks)

	if *perCluster {
		fmt.Printf("\n%-8s %10s %10s %10s %10s %10s %10s\n",
			"cluster", "refs", "l1hits", "nchits", "pchits", "remote", "wbacks")
		for i, cc := range res.PerCluster {
			fmt.Printf("%-8d %10d %10d %10d %10d %10d %10d\n",
				i, cc.Refs.Total(), cc.L1Hits.Total(), cc.NCHits.Total(),
				cc.PCHits.Total(), cc.Remote().Total(), cc.WritebacksHome)
		}
	}
}

// fatalIf aborts on a metric-registration error (programming errors
// only: duplicate or malformed names).
func fatalIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsmsim: %v\n", err)
		os.Exit(1)
	}
}

// writeSamples dumps the recorded series, picking CSV or JSONL from the
// file extension.
func writeSamples(path string, s *telemetry.Sampler) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = s.WriteCSV(f)
	} else {
		err = s.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runTraceFile drives the system from a binary trace produced by
// tracegen, sizing fractional page caches from the trace's page
// footprint (measured in a first pass).
func runTraceFile(path string, sys dsmnc.System, opt dsmnc.Options) (dsmnc.Result, error) {
	footprint := func() (int64, error) {
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		r := trace.NewReader(f)
		r.SetLimits(opt.Geometry.Procs(), memsys.MaxAddr)
		pages := map[memsys.Page]bool{}
		for {
			ref, ok := r.Next()
			if !ok {
				break
			}
			pages[memsys.PageOf(ref.Addr)] = true
		}
		if err := r.Err(); err != nil {
			return 0, err
		}
		return int64(len(pages)) * memsys.PageBytes, nil
	}
	bytes, err := footprint()
	if err != nil {
		return dsmnc.Result{}, err
	}
	f, err := os.Open(path)
	if err != nil {
		return dsmnc.Result{}, err
	}
	defer f.Close()
	r := trace.NewReader(f)
	r.SetLimits(opt.Geometry.Procs(), memsys.MaxAddr)
	return dsmnc.RunTrace(r, path, bytes, sys, opt)
}
