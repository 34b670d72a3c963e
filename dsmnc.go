// Package dsmnc reproduces "The Effectiveness of SRAM Network Caches in
// Clustered DSMs" (Moga & Dubois, USC CENG TR 97-11 / HPCA 1998): a
// trace-driven simulation study of remote data caches in clustered
// CC-NUMA machines.
//
// The package is a facade over the internal simulator. It names the
// paper's systems (base, NCS, NCD, nc, vb, vp, ncp, vbp, vpp, vxp),
// runs the paper's eight SPLASH-2-style workloads through them, and
// regenerates every table and figure of the evaluation section; see
// EXPERIMENTS.md for the index.
//
// Quick start:
//
//	res, err := dsmnc.Run(workload.FFT(workload.ScaleSmall), dsmnc.VB(16<<10), dsmnc.DefaultOptions())
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(res.MissRatios())
package dsmnc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dsmnc/internal/cache"
	"dsmnc/internal/cluster"
	"dsmnc/internal/core"
	"dsmnc/internal/directory"
	"dsmnc/internal/migration"
	"dsmnc/internal/pagecache"
	"dsmnc/internal/sim"
	"dsmnc/memsys"
	"dsmnc/stats"
	"dsmnc/telemetry"
	"dsmnc/trace"
	"dsmnc/workload"
)

// ErrConfig marks an invalid system or options configuration caught by
// Build/BuildFor before any simulation runs.
var ErrConfig = errors.New("dsmnc: invalid configuration")

// CounterMode selects what drives page relocation; it re-exports the
// cluster package's type so callers outside the module can configure it.
type CounterMode = cluster.CounterMode

// Relocation counter modes.
const (
	// CountersNone disables page relocation.
	CountersNone = cluster.CountersNone
	// CountersDirectory uses R-NUMA's per-(page,cluster) capacity-miss
	// counters at the directory (ncp/vbp/vpp).
	CountersDirectory = cluster.CountersDirectory
	// CountersNCSet uses the per-set victimization counters integrated
	// into the network victim cache (vxp).
	CountersNCSet = cluster.CountersNCSet
)

// NCKind selects the network-cache organization (paper §3, §5.1).
type NCKind int

// Network cache organizations.
const (
	NCNone          NCKind = iota // no network cache
	NCRelaxed                     // nc: allocate on miss, inclusion for dirty blocks only
	NCVictimBlock                 // vb: victim cache, block-address indexed
	NCVictimPage                  // vp: victim cache, page-address indexed
	NCInclusiveDRAM               // NCD: large DRAM NC with full inclusion
	NCInfiniteSRAM                // NCS: infinite fast NC
	NCInfiniteDRAM                // normalization baseline of Figures 9-11
)

// System is one system configuration of the design space.
type System struct {
	Name string

	NC      NCKind
	NCBytes int
	NCWays  int

	// PCBytes sizes the page cache in bytes; PCFraction sizes it as
	// 1/PCFraction of the workload's data set (the paper's ncp5 etc.).
	// Both zero means no page cache.
	PCBytes    int64
	PCFraction int

	// Counters selects the relocation trigger; Threshold and Adaptive
	// configure the relocation-threshold policy.
	Counters  cluster.CounterMode
	Threshold uint32
	Adaptive  bool

	// MOESI enables the dirty-shared O state, the protocol option the
	// paper evaluated and rejected in §3.2 (kept for ablation).
	MOESI bool
	// DecrementCounters enables the §3.4 refinement: false
	// invalidations decrement the relocation counters.
	DecrementCounters bool
	// DirPointers, when positive, replaces the full-map directory with
	// a Dir_iB limited-pointer directory of that many pointers — the
	// organization under which the paper argues only vxp's counters
	// stay usable (§3.4).
	DirPointers int
	// Migration enables SGI-Origin-style OS page migration and
	// replication (the alternative the paper contrasts in §1/§7).
	Migration bool
}

// Tech returns the latency class of the system's NC.
func (s System) Tech() stats.NCTech {
	switch s.NC {
	case NCNone:
		return stats.NCTechNone
	case NCInclusiveDRAM, NCInfiniteDRAM:
		return stats.NCTechDRAM
	default:
		return stats.NCTechSRAM
	}
}

// The paper's fixed NC geometry: four-way set-associative (§5.1).
const ncWays = 4

// Base is the system with no NC and no page cache.
func Base() System { return System{Name: "base", NC: NCNone} }

// NCS is the infinite, fast SRAM NC reference system.
func NCS() System { return System{Name: "NCS", NC: NCInfiniteSRAM} }

// InfiniteDRAM is the infinite, slow NC that Figures 9-11 normalize
// against.
func InfiniteDRAM() System { return System{Name: "infDRAM", NC: NCInfiniteDRAM} }

// NCD is the 512 KB DRAM NC with full inclusion (NUMA-Q style).
func NCD() System {
	return System{Name: "NCD", NC: NCInclusiveDRAM, NCBytes: 512 << 10, NCWays: ncWays}
}

// Origin is the SGI-Origin philosophy (paper §1/§7): no remote data
// cache at all, relying on OS page migration and replication.
func Origin() System {
	s := Base()
	s.Name = "origin"
	s.Migration = true
	return s
}

// NC is the nc organization: an SRAM NC of the given size that allocates
// on misses, with inclusion relaxed for clean blocks.
func NC(bytes int) System {
	return System{Name: "nc", NC: NCRelaxed, NCBytes: bytes, NCWays: ncWays}
}

// VB is the block-address-indexed network victim cache.
func VB(bytes int) System {
	return System{Name: "vb", NC: NCVictimBlock, NCBytes: bytes, NCWays: ncWays}
}

// VP is the page-address-indexed network victim cache.
func VP(bytes int) System {
	return System{Name: "vp", NC: NCVictimPage, NCBytes: bytes, NCWays: ncWays}
}

// withPC attaches a page cache driven by directory (R-NUMA) relocation
// counters with the paper's adaptive threshold policy.
func withPC(s System, name string, pcBytes int64, pcFraction int) System {
	s.Name = name
	s.PCBytes = pcBytes
	s.PCFraction = pcFraction
	s.Counters = cluster.CountersDirectory
	s.Threshold = pagecache.DefaultThreshold
	s.Adaptive = true
	return s
}

// NCP is nc plus a page cache of pcBytes (R-NUMA).
func NCP(bytes int, pcBytes int64) System { return withPC(NC(bytes), "ncp", pcBytes, 0) }

// VBP is vb plus a page cache of pcBytes.
func VBP(bytes int, pcBytes int64) System { return withPC(VB(bytes), "vbp", pcBytes, 0) }

// VPP is vp plus a page cache of pcBytes.
func VPP(bytes int, pcBytes int64) System { return withPC(VP(bytes), "vpp", pcBytes, 0) }

// NCPFrac is ncp with a page cache sized 1/frac of the data set (ncp5...).
func NCPFrac(bytes, frac int) System {
	return withPC(NC(bytes), fmt.Sprintf("ncp%d", frac), 0, frac)
}

// VBPFrac is vbp with a proportional page cache.
func VBPFrac(bytes, frac int) System {
	return withPC(VB(bytes), fmt.Sprintf("vbp%d", frac), 0, frac)
}

// VPPFrac is vpp with a proportional page cache.
func VPPFrac(bytes, frac int) System {
	return withPC(VP(bytes), fmt.Sprintf("vpp%d", frac), 0, frac)
}

// PCOnly is a page cache with no NC (the left bars of Figure 7).
func PCOnly(frac int) System {
	return withPC(Base(), fmt.Sprintf("pc%d", frac), 0, frac)
}

// VXPFrac is the paper's vxp: a page-address-indexed victim cache whose
// per-set victimization counters drive relocation, with a proportional
// page cache and an adaptive threshold starting at threshold.
func VXPFrac(bytes, frac int, threshold uint32) System {
	s := VP(bytes)
	s.Name = fmt.Sprintf("vxp%d(t%d)", frac, threshold)
	s.PCFraction = frac
	s.Counters = cluster.CountersNCSet
	s.Threshold = threshold
	s.Adaptive = true
	return s
}

// Options are the machine and run parameters shared by all systems.
type Options struct {
	Geometry  memsys.Geometry
	L1Bytes   int
	L1Ways    int
	Scale     workload.Scale
	Quantum   int // trace interleaving grain
	Latencies stats.Latencies

	// Check attaches the coherence invariant checker to every built
	// machine: runs validate protocol invariants after each reference
	// and fail with sim.ErrProtocol on the first violation.
	Check bool
	// KeepGoing makes sweeps record per-cell failures in
	// Experiment.Failed and carry on, instead of failing the whole
	// experiment on the first bad cell.
	KeepGoing bool
	// CellTimeout bounds each (workload, system) cell; zero means no
	// bound. A sweep generates each benchmark's trace once for all the
	// cells that consume it, so a cell is charged only what a solo run
	// would spend: its own Build, its own simulation and the trace's
	// generation. A cell whose charge passes the bound fails with
	// context.DeadlineExceeded at its next cancellation poll.
	CellTimeout time.Duration

	// Journal, when set, makes sweeps durable: every finished cell is
	// appended to the journal (one fsync'd JSON line), and cells the
	// journal already holds — from an earlier run that crashed or was
	// killed — are restored instead of re-run. See OpenJournal.
	Journal *Journal
	// Retries re-runs transiently-failed cells (timeouts, recovered
	// panics) up to this many extra attempts; permanent failures —
	// ErrConfig, protocol violations, bad references or traces,
	// deliberate cancellation — never retry. The first retry waits
	// 250ms, and the wait doubles on each further one, up to 30s.
	Retries int
	// Progress, when set, receives live counters (references applied,
	// cells done, journal writes) that Progress.Heartbeat can report.
	Progress *Progress

	// Sampler, when set, records the run's time series: one sample
	// every Sampler.Every() applied references (see telemetry.Sampler).
	// Single runs only — sweeps reject it with ErrConfig, because the
	// cells of a matrix would interleave their series.
	Sampler *telemetry.Sampler
	// EventTrace, when set, receives a structured coherence event
	// stream (fills, victimizations, invalidations, relocations,
	// write-backs) renderable by cmd/dsmtrace. Single runs only, like
	// Sampler.
	EventTrace *telemetry.Tracer

	// cellGate, when set, is consulted at the start of every RunCell
	// call with the cell's id (a sweep passes its experiment id); a
	// non-nil return fails the cell with that error. Test
	// hook for killing and fault-injecting sweeps deterministically.
	cellGate func(exp, bench, system string) error
}

// DefaultOptions is the paper's base configuration: 8 clusters x 4
// processors, 16 KB two-way processor caches, Table 2 latencies.
func DefaultOptions() Options {
	return Options{
		Geometry:  memsys.DefaultGeometry(),
		L1Bytes:   16 << 10,
		L1Ways:    2,
		Scale:     workload.ScaleMedium,
		Quantum:   4,
		Latencies: stats.DefaultLatencies(),
	}
}

// Result is the outcome of one (workload, system) simulation.
type Result struct {
	System   string
	Bench    string
	Refs     int64
	Counters stats.Counters
	Model    stats.Model
	// PerCluster holds each node's own event account (the aggregate is
	// Counters); useful for load-balance and home-placement analysis.
	PerCluster []stats.Counters
}

// MissRatios returns the cluster miss ratios (Figures 3-8).
func (r Result) MissRatios() stats.Ratios { return r.Model.MissRatios(&r.Counters) }

// Stall returns the remote read stall (Figures 9, 11).
func (r Result) Stall() stats.Stall { return r.Model.RemoteReadStall(&r.Counters) }

// Traffic returns the remote data traffic (Figure 10).
func (r Result) Traffic() stats.Traffic { return r.Model.RemoteTraffic(&r.Counters) }

// Build constructs the simulator for one (bench, system) pair. Most
// callers want Run; Build is exposed for custom drivers.
func Build(b *workload.Bench, s System, opt Options) (*sim.System, error) {
	return BuildFor(b.SharedBytes, s, opt)
}

// BuildFor constructs the simulator for a system and a workload of the
// given shared-data size (used to size fractional page caches). Use it
// when driving the machine from a trace file rather than a generator.
// Invalid configurations — unknown NC kinds, a fractional page cache
// with no data-set size to take the fraction of — fail with an
// ErrConfig-wrapped error.
func BuildFor(sharedBytes int64, s System, opt Options) (*sim.System, error) {
	cfg := sim.Config{
		Geometry:          opt.Geometry,
		L1:                cache.Config{Bytes: opt.L1Bytes, Ways: opt.L1Ways},
		Counters:          s.Counters,
		MOESI:             s.MOESI,
		DecrementCounters: s.DecrementCounters,
		Check:             opt.Check,
		Sampler:           opt.Sampler,
		Tracer:            opt.EventTrace,
	}
	if s.DirPointers > 0 {
		ptrs := s.DirPointers
		cfg.NewDirectory = func(clusters int) (directory.Protocol, error) {
			return directory.NewLimited(clusters, ptrs)
		}
	}
	if s.Migration {
		mc := migration.DefaultConfig()
		cfg.Migration = &mc
	}
	switch s.NC {
	case NCNone:
	case NCRelaxed:
		cfg.NewNC = func() (core.NC, error) { return core.NewRelaxed(s.NCBytes, s.NCWays) }
	case NCVictimBlock:
		cfg.NewNC = func() (core.NC, error) {
			return core.NewVictim(core.VictimConfig{Bytes: s.NCBytes, Ways: s.NCWays})
		}
	case NCVictimPage:
		cfg.NewNC = func() (core.NC, error) {
			return core.NewVictim(core.VictimConfig{
				Bytes: s.NCBytes, Ways: s.NCWays,
				Indexing:    cache.ByPage,
				SetCounters: s.Counters == cluster.CountersNCSet,
			})
		}
	case NCInclusiveDRAM:
		cfg.NewNC = func() (core.NC, error) { return core.NewInclusive(s.NCBytes, s.NCWays) }
	case NCInfiniteSRAM:
		cfg.NewNC = func() (core.NC, error) { return core.NewInfinite(stats.NCTechSRAM), nil }
	case NCInfiniteDRAM:
		cfg.NewNC = func() (core.NC, error) { return core.NewInfinite(stats.NCTechDRAM), nil }
	default:
		return nil, fmt.Errorf("%w: unknown NC kind %d in system %q", ErrConfig, s.NC, s.Name)
	}

	pcBytes := s.PCBytes
	if s.PCFraction < 0 {
		return nil, fmt.Errorf("%w: system %q has negative page-cache fraction %d",
			ErrConfig, s.Name, s.PCFraction)
	}
	if s.PCFraction > 0 {
		if sharedBytes <= 0 {
			// Without a data-set size, a fractional page cache would
			// silently degenerate to a single frame and thrash.
			return nil, fmt.Errorf("%w: system %q sizes its page cache as 1/%d of the data set, but the shared-data size is %d",
				ErrConfig, s.Name, s.PCFraction, sharedBytes)
		}
		pcBytes = sharedBytes / int64(s.PCFraction)
	}
	if pcBytes > 0 {
		frames := int(pcBytes / memsys.PageBytes)
		if frames < 1 {
			frames = 1
		}
		threshold := s.Threshold
		adaptive := s.Adaptive
		cfg.NewPC = func() (*pagecache.PageCache, error) {
			var pol *pagecache.Policy
			if adaptive {
				pol = pagecache.NewAdaptivePolicy(threshold)
			} else {
				pol = pagecache.NewFixedPolicy(threshold)
			}
			return pagecache.New(frames, pol)
		}
	}
	machine, err := sim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrConfig, err)
	}
	return machine, nil
}

// Run simulates workload b on system s and returns the event account.
// It is RunCell with no caller context: a panic comes back as
// ErrCellPanic, and Options.CellTimeout bounds the run.
func Run(b *workload.Bench, s System, opt Options) (Result, error) {
	return RunCell(context.Background(), "", b, s, opt)
}

// RunTrace simulates an arbitrary trace source on system s. sharedBytes
// sizes fractional page caches (pass the trace's data-set footprint, or
// 0 if the system uses an absolute PCBytes). The source is read in
// 1024-reference chunks through the same driver RunCell uses. A
// machine error comes first; decode errors from sources exposing Err()
// — like trace.Reader or the fault injector — surface once the stream
// ends.
func RunTrace(src trace.Source, name string, sharedBytes int64, s System, opt Options) (Result, error) {
	machine, err := BuildFor(sharedBytes, s, opt)
	if err != nil {
		return Result{}, err
	}
	d := driver{ctx: context.Background(), machine: machine, prog: opt.Progress}
	buf := make([]trace.Ref, 1024)
	for d.err == nil {
		k := 0
		for ; k < len(buf); k++ {
			r, ok := src.Next()
			if !ok {
				break
			}
			buf[k] = r
		}
		d.apply(buf[:k])
		if k < len(buf) {
			break
		}
	}
	if fe, ok := src.(interface{ Err() error }); ok && d.err == nil {
		d.err = fe.Err()
	}
	return d.result(s, name, opt)
}
