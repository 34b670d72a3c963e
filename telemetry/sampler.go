// Package telemetry gives every simulation live observability: a
// time-series sampler that records per-interval gauges into a bounded
// ring buffer (exportable as JSONL or CSV), a structured coherence
// event trace with a compact binary codec (renderable to Perfetto by
// cmd/dsmtrace), and a Prometheus-style metrics registry served over
// HTTP alongside the Go pprof handlers.
//
// The paper's evaluation (§6) — and package stats — only see end-of-run
// aggregates, which hide warm-up transients, NC/PC thrashing phases and
// the moment adaptive thresholds kick in. The sampler exposes exactly
// those: `dsmsim -sample-every 100000 -sample-out run.jsonl` records the
// NC hit-rate and miss-ratio trajectory of a run, and `-metrics :9090`
// serves the same gauges live while a sweep is still going.
//
// Everything here is race-safe (samplers and tracers may be read by a
// metrics scrape while the simulation writes them) and panic-free by
// the repository's AST-enforced contract: malformed event traces land
// on ErrBadEventTrace, never on a panic.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Sample is one point of a run's time series. The producer (the
// simulator) fills the cumulative counters and occupancy gauges; the
// Sampler stamps the sequence number and wall clock and derives the
// interval rates from the previous sample.
type Sample struct {
	// Seq numbers samples from 0 in recording order.
	Seq int64 `json:"seq"`
	// Refs is the cumulative count of applied references — the
	// simulated clock every other field is sampled at.
	Refs int64 `json:"refs"`

	// WallNanos and RefsPerSec are wall-clock annotations, present only
	// when the sampler was given a clock; they stay zero otherwise so
	// that clockless series are fully deterministic.
	WallNanos  int64   `json:"wall_ns,omitempty"`
	RefsPerSec float64 `json:"refs_per_sec,omitempty"`

	// Cumulative event counters, mirroring stats.Counters.
	Reads          int64 `json:"reads"`
	Writes         int64 `json:"writes"`
	L1Hits         int64 `json:"l1_hits"`
	NCHits         int64 `json:"nc_hits"`
	PCHits         int64 `json:"pc_hits"`
	RemoteMisses   int64 `json:"remote_misses"`
	RemoteCapacity int64 `json:"remote_capacity"`
	NCInserts      int64 `json:"nc_inserts"`
	NCEvictions    int64 `json:"nc_evictions"`
	Relocations    int64 `json:"relocations"`
	PageEvictions  int64 `json:"page_evictions"`
	WritebacksHome int64 `json:"writebacks_home"`

	// Occupancy gauges, summed over the machine's clusters.
	NCUsed   int64 `json:"nc_used"`
	NCFrames int64 `json:"nc_frames"` // 0 means unbounded (infinite NCs)
	PCUsed   int64 `json:"pc_used"`
	PCFrames int64 `json:"pc_frames"`

	// Cumulative derived rates, in percent of shared references.
	MissPct  float64 `json:"miss_pct"`
	NCHitPct float64 `json:"nc_hit_pct"`

	// Interval derived rates: the same ratios over just the references
	// applied since the previous sample. These are the transients the
	// end-of-run aggregates hide.
	IntervalRefs     int64   `json:"interval_refs"`
	IntervalMissPct  float64 `json:"interval_miss_pct"`
	IntervalNCHitPct float64 `json:"interval_nc_hit_pct"`
	// BusUtilPct approximates snooping-bus pressure over the interval:
	// the fraction of references that issued a bus transaction (every
	// reference that did not hit in its own processor cache), percent.
	BusUtilPct float64 `json:"bus_util_pct"`
}

// pct returns 100*num/den, or 0 for an empty denominator.
func pct(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// derive fills the interval fields of s from the previous sample (zero
// for the first) and returns it.
func derive(s, prev Sample) Sample {
	dRefs := s.Refs - prev.Refs
	if dRefs < 0 { // defensive: a producer rewinding its clock
		dRefs = 0
	}
	s.IntervalRefs = dRefs
	s.IntervalMissPct = pct(s.RemoteMisses-prev.RemoteMisses, dRefs)
	s.IntervalNCHitPct = pct(s.NCHits-prev.NCHits, dRefs)
	s.BusUtilPct = pct(dRefs-(s.L1Hits-prev.L1Hits), dRefs)
	s.MissPct = pct(s.RemoteMisses, s.Refs)
	s.NCHitPct = pct(s.NCHits, s.Refs)
	return s
}

// DefaultCapacity bounds the sample ring buffer when the caller does
// not: at the dsmsim default of one sample per 100k references this
// retains the most recent ~400M simulated references of history.
const DefaultCapacity = 4096

// Sampler records the time series of one simulated machine. It is safe
// for concurrent use: the simulator records while a metrics scrape or a
// heartbeat reads. Create one with NewSampler and attach it through
// dsmnc.Options.Sampler (single runs only — a sweep's cells would
// interleave their series).
type Sampler struct {
	mu       sync.Mutex
	every    int64
	ring     []Sample
	start    int // index of the oldest retained sample
	n        int // retained count
	seq      int64
	dropped  int64
	prev     Sample // last recorded sample (raw basis for intervals)
	hasPrev  bool
	now      func() time.Time
	lastWall time.Time
}

// NewSampler builds a sampler that expects one sample every `every`
// applied references, retaining at most capacity samples (oldest
// dropped first). Non-positive arguments take the minimum interval of 1
// and DefaultCapacity respectively.
func NewSampler(every int64, capacity int) *Sampler {
	if every < 1 {
		every = 1
	}
	if capacity < 1 {
		capacity = DefaultCapacity
	}
	return &Sampler{every: every, ring: make([]Sample, 0, capacity)}
}

// WithClock attaches a wall-clock source (normally time.Now) so samples
// carry WallNanos and RefsPerSec. Without one the series is fully
// deterministic. Returns the sampler for chaining.
func (s *Sampler) WithClock(now func() time.Time) *Sampler {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
	if now != nil {
		s.lastWall = now()
	}
	return s
}

// Every returns the sampling interval in applied references.
func (s *Sampler) Every() int64 { return s.every }

// Record stamps and appends one sample. The caller fills the cumulative
// counters and occupancy gauges; Record assigns Seq, the wall-clock
// annotations, and the interval rates derived from the previous sample.
func (s *Sampler) Record(raw Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	smp := derive(raw, s.prev)
	smp.Seq = s.seq
	s.seq++
	if s.now != nil {
		t := s.now()
		smp.WallNanos = t.UnixNano()
		if dt := t.Sub(s.lastWall).Seconds(); dt > 0 {
			smp.RefsPerSec = float64(smp.IntervalRefs) / dt
		}
		s.lastWall = t
	}
	s.prev = smp
	s.hasPrev = true
	s.append(smp)
}

// append adds to the ring, recycling the oldest slot when full.
func (s *Sampler) append(smp Sample) {
	if s.n < cap(s.ring) {
		s.ring = append(s.ring, Sample{})
		s.ring[(s.start+s.n)%cap(s.ring)] = smp
		s.n++
		return
	}
	s.ring[s.start] = smp
	s.start = (s.start + 1) % cap(s.ring)
	s.dropped++
}

// Len returns how many samples are retained.
func (s *Sampler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Recorded returns how many samples were ever recorded, including ones
// the bounded ring has since dropped.
func (s *Sampler) Recorded() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Dropped returns how many samples the bounded ring discarded.
func (s *Sampler) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Latest returns the most recent sample, if any.
func (s *Sampler) Latest() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasPrev {
		return Sample{}, false
	}
	return s.prev, true
}

// Samples returns a copy of the retained series, oldest first.
func (s *Sampler) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.ring[(s.start+i)%cap(s.ring)]
	}
	return out
}

// WriteJSONL writes the retained series as one JSON object per line —
// the `-sample-out run.jsonl` format.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, smp := range s.Samples() {
		if err := enc.Encode(smp); err != nil {
			return err
		}
	}
	return nil
}

// csvHeader names the CSV columns, in the order csvRow emits them.
var csvHeader = []string{
	"seq", "refs", "wall_ns", "refs_per_sec",
	"reads", "writes", "l1_hits", "nc_hits", "pc_hits",
	"remote_misses", "remote_capacity", "nc_inserts", "nc_evictions",
	"relocations", "page_evictions", "writebacks_home",
	"nc_used", "nc_frames", "pc_used", "pc_frames",
	"miss_pct", "nc_hit_pct",
	"interval_refs", "interval_miss_pct", "interval_nc_hit_pct", "bus_util_pct",
}

// WriteCSV writes the retained series as CSV with a header row — the
// `-sample-out run.csv` format.
func (s *Sampler) WriteCSV(w io.Writer) error {
	for i, h := range csvHeader {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, h); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, smp := range s.Samples() {
		if _, err := fmt.Fprintf(w,
			"%d,%d,%d,%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%g,%g,%d,%g,%g,%g\n",
			smp.Seq, smp.Refs, smp.WallNanos, smp.RefsPerSec,
			smp.Reads, smp.Writes, smp.L1Hits, smp.NCHits, smp.PCHits,
			smp.RemoteMisses, smp.RemoteCapacity, smp.NCInserts, smp.NCEvictions,
			smp.Relocations, smp.PageEvictions, smp.WritebacksHome,
			smp.NCUsed, smp.NCFrames, smp.PCUsed, smp.PCFrames,
			smp.MissPct, smp.NCHitPct,
			smp.IntervalRefs, smp.IntervalMissPct, smp.IntervalNCHitPct, smp.BusUtilPct,
		); err != nil {
			return err
		}
	}
	return nil
}
