package explore

// The declarative exploration spec. A Space names one benchmark and the
// axes of the design space to sweep; Enumerate expands the axes into
// concrete dsmnc systems in a canonical, deterministic order, so the
// same spec always produces the same point list (and therefore the same
// job fingerprints and the same report bytes).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"
	"slices"

	"dsmnc"
	"dsmnc/memsys"
	"dsmnc/serve"
	"dsmnc/workload"
)

// MaxSpaceBytes bounds what ParseSpace will even look at.
const MaxSpaceBytes = 1 << 16

// MaxPoints bounds one exploration's enumeration; a spec whose axis
// cross-product exceeds it is rejected with ErrBadSpace rather than
// silently truncated.
const MaxPoints = 4096

// Space is the declarative design-space spec. Empty axes mean the
// paper's defaults (see normalized). Axis values are deduplicated and
// canonically ordered, so specs differing only in axis order coalesce
// to the same fingerprint.
type Space struct {
	// Bench is the workload name (FFT, Ocean, ...; workload.Names).
	Bench string `json:"bench"`
	// Scale is the workload scale: test, small, medium or large;
	// empty means small.
	Scale string `json:"scale,omitempty"`
	// Tech lists the NC technologies to sweep: "none" (the no-NC
	// baseline), "sram" and/or "dram". Empty means ["none","sram"].
	Tech []string `json:"tech,omitempty"`
	// Orgs lists the SRAM NC organizations: "nc" (allocate-on-miss),
	// "vb" (block-indexed victim), "vp" (page-indexed victim), their
	// page-cache-bearing R-NUMA forms "ncp"/"vbp"/"vpp", and "vxp"
	// (page-indexed victim with per-set counters and a page cache).
	// Empty means ["nc","vb","vp"].
	Orgs []string `json:"orgs,omitempty"`
	// NCKB lists SRAM NC sizes in KB. Empty means [16] (the paper's).
	NCKB []int `json:"nc_kb,omitempty"`
	// Ways lists NC associativities (power of two, 1..16). Empty means
	// [4] (the paper's).
	Ways []int `json:"ways,omitempty"`
	// DRAMKB lists DRAM NC sizes in KB for tech "dram" (the NUMA-Q
	// style inclusive organization). Empty means [512] (the paper's).
	DRAMKB []int `json:"dram_kb,omitempty"`
	// PCFrac lists page-cache sizes as 1/frac of the workload data set,
	// applied to the page-cache-bearing orgs (ncp, vbp, vpp, vxp).
	// Empty means [5] when such an org is listed.
	PCFrac []int `json:"pc_frac,omitempty"`
	// Thresholds lists vxp relocation thresholds. Empty means [32].
	Thresholds []int `json:"thresholds,omitempty"`
	// Contention additionally scores every point under the queueing-
	// corrected contention model (stats.ContentionModel).
	Contention bool `json:"contention,omitempty"`
}

// Point is one enumerated configuration: the concrete dsmnc system (for
// the stall model and the bit-cost account) together with the serve
// request that simulates it (for the scheduler).
type Point struct {
	Name string        // canonical point name, unique within the space
	Sys  dsmnc.System  // the concrete configuration
	Req  serve.Request // the job that simulates it
	Cost int64         // SRAM bit cost (CostBits)
}

// ParseSpace decodes and validates one JSON space spec. Every failure —
// oversized input, malformed JSON, unknown fields, trailing garbage,
// unknown axis values, out-of-range sizes, an oversized cross-product —
// is an ErrBadSpace-wrapped error, never a panic.
func ParseSpace(data []byte) (Space, error) {
	if len(data) > MaxSpaceBytes {
		return Space{}, fmt.Errorf("%w: spec over %d bytes", ErrBadSpace, MaxSpaceBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Space
	if err := dec.Decode(&s); err != nil {
		return Space{}, fmt.Errorf("%w: %v", ErrBadSpace, err)
	}
	if dec.More() {
		return Space{}, fmt.Errorf("%w: trailing data after the spec object", ErrBadSpace)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return Space{}, fmt.Errorf("%w: trailing data after the spec object", ErrBadSpace)
	}
	return s.Normalize()
}

// techRank and orgRank pin the canonical axis order, independent of the
// order the spec listed the values in.
var techRank = map[string]int{"none": 0, "sram": 1, "dram": 2}
var orgRank = map[string]int{"nc": 0, "vb": 1, "vp": 2, "ncp": 3, "vbp": 4, "vpp": 5, "vxp": 6}

// orgHasPC reports whether the organization carries a page cache.
func orgHasPC(org string) bool {
	switch org {
	case "ncp", "vbp", "vpp", "vxp":
		return true
	}
	return false
}

// canonInts sorts, deduplicates and bounds-checks an integer axis.
func canonInts(name string, vals []int, lo, hi int) ([]int, error) {
	out := slices.Clone(vals)
	slices.Sort(out)
	out = slices.Compact(out)
	for _, v := range out {
		if v < lo || v > hi {
			return nil, fmt.Errorf("%w: %s value %d outside [%d,%d]", ErrBadSpace, name, v, lo, hi)
		}
	}
	return out, nil
}

// Normalize fills defaults, canonicalizes axis order, and validates the
// spec. The result is the canonical form: equal canonical forms mean
// equal fingerprints and equal enumerations.
func (s Space) Normalize() (Space, error) {
	if s.Scale == "" {
		s.Scale = "small"
	}
	scale, err := workload.ParseScale(s.Scale)
	if err != nil {
		return Space{}, fmt.Errorf("%w: %v", ErrBadSpace, err)
	}
	if s.Bench == "" {
		return Space{}, fmt.Errorf("%w: missing bench", ErrBadSpace)
	}
	if workload.ByName(s.Bench, scale) == nil {
		return Space{}, fmt.Errorf("%w: unknown bench %q (one of %v)", ErrBadSpace, s.Bench, workload.Names())
	}

	if len(s.Tech) == 0 {
		s.Tech = []string{"none", "sram"}
	}
	s.Tech = slices.Clone(s.Tech)
	for _, t := range s.Tech {
		if _, ok := techRank[t]; !ok {
			return Space{}, fmt.Errorf("%w: unknown tech %q (none|sram|dram)", ErrBadSpace, t)
		}
	}
	slices.SortFunc(s.Tech, func(a, b string) int { return techRank[a] - techRank[b] })
	s.Tech = slices.Compact(s.Tech)

	if len(s.Orgs) == 0 {
		s.Orgs = []string{"nc", "vb", "vp"}
	}
	s.Orgs = slices.Clone(s.Orgs)
	anyPC := false
	for _, o := range s.Orgs {
		if _, ok := orgRank[o]; !ok {
			return Space{}, fmt.Errorf("%w: unknown org %q (nc|vb|vp|ncp|vbp|vpp|vxp)", ErrBadSpace, o)
		}
		anyPC = anyPC || orgHasPC(o)
	}
	slices.SortFunc(s.Orgs, func(a, b string) int { return orgRank[a] - orgRank[b] })
	s.Orgs = slices.Compact(s.Orgs)

	if len(s.NCKB) == 0 {
		s.NCKB = []int{16}
	}
	if s.NCKB, err = canonInts("nc_kb", s.NCKB, 1, 16<<10); err != nil {
		return Space{}, err
	}
	if len(s.Ways) == 0 {
		s.Ways = []int{4}
	}
	if s.Ways, err = canonInts("ways", s.Ways, 1, 16); err != nil {
		return Space{}, err
	}
	for _, w := range s.Ways {
		if bits.OnesCount(uint(w)) != 1 {
			return Space{}, fmt.Errorf("%w: ways %d is not a power of two", ErrBadSpace, w)
		}
	}
	if len(s.DRAMKB) == 0 {
		s.DRAMKB = []int{512}
	}
	if s.DRAMKB, err = canonInts("dram_kb", s.DRAMKB, 1, 16<<10); err != nil {
		return Space{}, err
	}
	if len(s.PCFrac) == 0 && anyPC {
		s.PCFrac = []int{5}
	}
	if s.PCFrac, err = canonInts("pc_frac", s.PCFrac, 2, 64); err != nil {
		return Space{}, err
	}
	if len(s.Thresholds) == 0 {
		s.Thresholds = []int{32}
	}
	if s.Thresholds, err = canonInts("thresholds", s.Thresholds, 1, 1<<20); err != nil {
		return Space{}, err
	}
	if n := s.countPoints(); n > MaxPoints {
		return Space{}, fmt.Errorf("%w: %d points exceed the %d-point bound", ErrBadSpace, n, MaxPoints)
	} else if n == 0 {
		return Space{}, fmt.Errorf("%w: the spec enumerates no points", ErrBadSpace)
	}
	return s, nil
}

// countPoints sizes the enumeration without materializing it.
func (s Space) countPoints() int {
	n := 0
	for _, t := range s.Tech {
		switch t {
		case "none":
			n++
		case "dram":
			n += len(s.DRAMKB)
		case "sram":
			for _, org := range s.Orgs {
				per := len(s.NCKB) * len(s.Ways)
				if orgHasPC(org) {
					per *= len(s.PCFrac)
					if org == "vxp" {
						per *= len(s.Thresholds)
					}
				}
				n += per
			}
		}
	}
	return n
}

// Fingerprint condenses the canonical spec into a stable token; specs
// that normalize identically share it.
func (s Space) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", s)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Enumerate expands the (already normalized) spec into its concrete
// points, in canonical order: tech, then organization, then size, then
// associativity, then page-cache fraction, then threshold. It fails
// with ErrBadSpace if the spec was not normalized or a configuration
// cannot be constructed.
func (s Space) Enumerate() ([]Point, error) {
	ns, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	pts := make([]Point, 0, ns.countPoints())
	add := func(name string, sys dsmnc.System, req serve.Request) {
		req.Bench, req.Scale = ns.Bench, ns.Scale
		pts = append(pts, Point{Name: name, Sys: sys, Req: req, Cost: CostBits(sys)})
	}
	for _, t := range ns.Tech {
		switch t {
		case "none":
			add("base", dsmnc.Base(), serve.Request{System: "base"})
		case "sram":
			for _, org := range ns.Orgs {
				for _, kb := range ns.NCKB {
					for _, w := range ns.Ways {
						bytes := kb << 10
						if bytes/memsys.BlockBytes < w {
							return nil, fmt.Errorf("%w: nc_kb %d too small for %d ways", ErrBadSpace, kb, w)
						}
						base := fmt.Sprintf("sram-%s-%dK-w%d", org, kb, w)
						switch org {
						case "nc", "vb", "vp":
							sys := sramSys(org, bytes, 0)
							sys.NCWays = w
							add(base, sys, serve.Request{System: org, NCBytes: bytes, NCWays: w})
						case "ncp", "vbp", "vpp":
							for _, frac := range ns.PCFrac {
								sys := sramSys(org[:2], bytes, frac)
								sys.NCWays = w
								add(fmt.Sprintf("%s-pc%d", base, frac), sys,
									serve.Request{System: org[:2], NCBytes: bytes, NCWays: w, PCFrac: frac})
							}
						case "vxp":
							for _, frac := range ns.PCFrac {
								for _, thr := range ns.Thresholds {
									sys := dsmnc.VXPFrac(bytes, frac, uint32(thr))
									sys.NCWays = w
									add(fmt.Sprintf("%s-pc%d-t%d", base, frac, thr), sys,
										serve.Request{System: "vxp", NCBytes: bytes, NCWays: w, PCFrac: frac, Threshold: uint32(thr)})
								}
							}
						}
					}
				}
			}
		case "dram":
			for _, kb := range ns.DRAMKB {
				sys := dsmnc.NCD()
				sys.NCBytes = kb << 10
				add(fmt.Sprintf("dram-%dK", kb), sys, serve.Request{System: "NCD", NCBytes: kb << 10})
			}
		}
	}
	return pts, nil
}

// sramSys builds the plain or page-cache-bearing SRAM organization.
func sramSys(org string, bytes, pcFrac int) dsmnc.System {
	switch {
	case pcFrac > 0:
		switch org {
		case "nc":
			return dsmnc.NCPFrac(bytes, pcFrac)
		case "vb":
			return dsmnc.VBPFrac(bytes, pcFrac)
		default:
			return dsmnc.VPPFrac(bytes, pcFrac)
		}
	default:
		switch org {
		case "nc":
			return dsmnc.NC(bytes)
		case "vb":
			return dsmnc.VB(bytes)
		default:
			return dsmnc.VP(bytes)
		}
	}
}
