package serve

// The job-submission surface: a small JSON request naming one
// (benchmark, system) cell of the paper's design space, decoded
// strictly and validated into the existing dsmnc constructors. The
// decoder is hardened — any input bytes produce either a valid Request
// or an ErrBadRequest-wrapped error, never a panic (FuzzJobRequest).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"time"

	"dsmnc"
	"dsmnc/memsys"
	"dsmnc/workload"
)

// MaxRequestBytes bounds what ParseRequest will even look at; the HTTP
// binding enforces the same limit on the wire.
const MaxRequestBytes = 1 << 16

// defaultNCBytes is the paper's 16 KB SRAM network cache, used when a
// request names an NC-bearing system without sizing it.
const defaultNCBytes = 16 << 10

// defaultVXPThreshold is the vxp relocation threshold used when the
// request leaves it unset (the paper's Figure 11 baseline).
const defaultVXPThreshold = 32

// defaultNCWays is the paper's fixed NC associativity (§5.1).
const defaultNCWays = 4

// defaultNCDBytes is the paper's 512 KB inclusive DRAM NC.
const defaultNCDBytes = 512 << 10

// Request names one simulation job: a benchmark, a system organization
// from the paper's design space, and the knobs that size it. The zero
// values of the optional fields mean "the paper's defaults".
type Request struct {
	// Bench is the workload name (FFT, Ocean, Radix, ...; see
	// workload.Names).
	Bench string `json:"bench"`
	// System is the organization: base, origin, NCS, NCD, infDRAM,
	// nc, vb, vp, pc or vxp.
	System string `json:"system"`
	// NCBytes sizes the network cache of nc/vb/vp/vxp systems (0 means
	// the paper's 16 KB) and of NCD (0 means the paper's 512 KB).
	NCBytes int `json:"nc_bytes,omitempty"`
	// NCWays sets the NC associativity of NC-bearing systems; 0 means
	// the paper's 4-way. Must be a power of two no larger than 16.
	NCWays int `json:"nc_ways,omitempty"`
	// PCBytes attaches a page cache of an absolute size to nc/vb/vp
	// (the paper's ncp/vbp/vpp organizations).
	PCBytes int64 `json:"pc_bytes,omitempty"`
	// PCFrac attaches a page cache sized 1/PCFrac of the workload's
	// data set (ncp5, vbp5, ...); required for pc and vxp.
	PCFrac int `json:"pc_frac,omitempty"`
	// Threshold overrides the relocation threshold of page-cache
	// systems; 0 means the adaptive default (32 for vxp).
	Threshold uint32 `json:"threshold,omitempty"`
	// Scale is the workload scale: test, small, medium or large;
	// empty means small.
	Scale string `json:"scale,omitempty"`
	// Check attaches the coherence invariant checker to the run.
	Check bool `json:"check,omitempty"`
	// TimeoutMS bounds the job's run time in milliseconds; 0 means the
	// scheduler's default. It does not contribute to the job's
	// identity: two submissions differing only in timeout coalesce.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ParseRequest decodes and validates one JSON job request. Every
// failure — oversized input, malformed JSON, unknown fields, trailing
// garbage, unknown names, out-of-range parameters — is an
// ErrBadRequest-wrapped error.
func ParseRequest(data []byte) (Request, error) {
	if len(data) > MaxRequestBytes {
		return Request{}, fmt.Errorf("%w: request body over %d bytes", ErrBadRequest, MaxRequestBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Request
	if err := dec.Decode(&r); err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if dec.More() {
		return Request{}, fmt.Errorf("%w: trailing data after the request object", ErrBadRequest)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return Request{}, fmt.Errorf("%w: trailing data after the request object", ErrBadRequest)
	}
	r = r.normalized()
	if err := r.validate(); err != nil {
		return Request{}, err
	}
	return r, nil
}

// normalized fills the paper's defaults in, so equivalent requests
// share one canonical form (and therefore one job ID).
func (r Request) normalized() Request {
	if r.Scale == "" {
		r.Scale = "small"
	}
	switch r.System {
	case "nc", "vb", "vp", "vxp":
		if r.NCBytes == 0 {
			r.NCBytes = defaultNCBytes
		}
		if r.NCWays == 0 {
			r.NCWays = defaultNCWays
		}
	case "NCD":
		if r.NCBytes == 0 {
			r.NCBytes = defaultNCDBytes
		}
		if r.NCWays == 0 {
			r.NCWays = defaultNCWays
		}
	}
	if r.System == "vxp" && r.Threshold == 0 {
		r.Threshold = defaultVXPThreshold
	}
	return r
}

// validate checks a normalized request against the design space: known
// names, in-range sizes, and no parameters that the named system would
// silently ignore.
func (r Request) validate() error {
	scale, err := workload.ParseScale(r.Scale)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if r.Bench == "" {
		return fmt.Errorf("%w: missing bench", ErrBadRequest)
	}
	if workload.ByName(r.Bench, scale) == nil {
		return fmt.Errorf("%w: unknown bench %q (one of %v)", ErrBadRequest, r.Bench, workload.Names())
	}
	if r.NCBytes < 0 || r.NCWays < 0 || r.PCBytes < 0 || r.PCFrac < 0 || r.TimeoutMS < 0 {
		return fmt.Errorf("%w: negative size, ways or timeout", ErrBadRequest)
	}
	if r.NCBytes > 16<<20 {
		return fmt.Errorf("%w: nc_bytes %d over the 16 MiB bound", ErrBadRequest, r.NCBytes)
	}
	if r.NCWays != 0 {
		if r.NCWays > 16 || r.NCWays&(r.NCWays-1) != 0 {
			return fmt.Errorf("%w: nc_ways %d is not a power of two in [1,16]", ErrBadRequest, r.NCWays)
		}
		switch r.System {
		case "nc", "vb", "vp", "vxp", "NCD":
		default:
			return fmt.Errorf("%w: system %q has no network cache to set nc_ways on", ErrBadRequest, r.System)
		}
		if r.NCBytes/memsys.BlockBytes < r.NCWays {
			return fmt.Errorf("%w: nc_bytes %d too small for %d ways", ErrBadRequest, r.NCBytes, r.NCWays)
		}
	}
	if r.PCBytes > 1<<31 {
		return fmt.Errorf("%w: pc_bytes %d over the 2 GiB bound", ErrBadRequest, r.PCBytes)
	}
	if r.PCFrac > 64 {
		return fmt.Errorf("%w: pc_frac %d over the 1/64 bound", ErrBadRequest, r.PCFrac)
	}
	if r.Threshold > 1<<20 {
		return fmt.Errorf("%w: threshold %d over the 2^20 bound", ErrBadRequest, r.Threshold)
	}
	if r.TimeoutMS > int64(24*time.Hour/time.Millisecond) {
		return fmt.Errorf("%w: timeout_ms over the 24h bound", ErrBadRequest)
	}

	rejectParams := func(what string) error {
		if r.NCBytes != 0 || r.PCBytes != 0 || r.PCFrac != 0 || r.Threshold != 0 {
			return fmt.Errorf("%w: system %q takes no %s parameters", ErrBadRequest, r.System, what)
		}
		return nil
	}
	switch r.System {
	case "base", "origin", "NCS", "infDRAM":
		return rejectParams("cache")
	case "NCD":
		if r.PCBytes != 0 || r.PCFrac != 0 || r.Threshold != 0 {
			return fmt.Errorf("%w: system NCD takes only nc_bytes and nc_ways", ErrBadRequest)
		}
		return nil
	case "nc", "vb", "vp":
		if r.PCBytes != 0 && r.PCFrac != 0 {
			return fmt.Errorf("%w: pc_bytes and pc_frac are mutually exclusive", ErrBadRequest)
		}
		if r.Threshold != 0 && r.PCBytes == 0 && r.PCFrac == 0 {
			return fmt.Errorf("%w: threshold needs a page cache (pc_bytes or pc_frac)", ErrBadRequest)
		}
		return nil
	case "pc":
		if r.PCFrac == 0 {
			return fmt.Errorf("%w: system pc needs pc_frac", ErrBadRequest)
		}
		if r.NCBytes != 0 || r.PCBytes != 0 || r.Threshold != 0 {
			return fmt.Errorf("%w: system pc takes only pc_frac", ErrBadRequest)
		}
		return nil
	case "vxp":
		if r.PCFrac == 0 {
			return fmt.Errorf("%w: system vxp needs pc_frac", ErrBadRequest)
		}
		if r.PCBytes != 0 {
			return fmt.Errorf("%w: system vxp sizes its page cache with pc_frac, not pc_bytes", ErrBadRequest)
		}
		if r.Threshold == 0 {
			return fmt.Errorf("%w: system vxp needs a positive threshold", ErrBadRequest)
		}
		return nil
	case "":
		return fmt.Errorf("%w: missing system", ErrBadRequest)
	}
	return fmt.Errorf("%w: unknown system %q (base|origin|NCS|NCD|infDRAM|nc|vb|vp|pc|vxp)", ErrBadRequest, r.System)
}

// Fingerprint condenses the result-determining request fields into a
// stable token; submissions differing only in runtime knobs (timeout)
// share it.
func (r Request) Fingerprint() string {
	n := r.normalized()
	n.TimeoutMS = 0
	h := fnv.New64a()
	// Requests once carried a shards field that printed as a trailing
	// "Shards:0"; hashing it still keeps the job IDs already written
	// to ledgers valid.
	fmt.Fprintf(h, "%s Shards:0}", strings.TrimSuffix(fmt.Sprintf("%+v", n), "}"))
	return fmt.Sprintf("%016x", h.Sum64())
}

// compile translates a validated request into the cell engine's inputs,
// starting from the scheduler's base options (geometry, latencies).
func (r Request) compile(base dsmnc.Options) (*workload.Bench, dsmnc.System, dsmnc.Options, error) {
	scale, err := workload.ParseScale(r.Scale)
	if err != nil {
		return nil, dsmnc.System{}, dsmnc.Options{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	opt := base
	opt.Scale = scale
	opt.Check = r.Check
	bench := workload.ByName(r.Bench, scale)
	if bench == nil {
		return nil, dsmnc.System{}, dsmnc.Options{}, fmt.Errorf("%w: unknown bench %q", ErrBadRequest, r.Bench)
	}

	var sys dsmnc.System
	switch r.System {
	case "base":
		sys = dsmnc.Base()
	case "origin":
		sys = dsmnc.Origin()
	case "NCS":
		sys = dsmnc.NCS()
	case "NCD":
		sys = dsmnc.NCD()
		sys.NCBytes = r.NCBytes
	case "infDRAM":
		sys = dsmnc.InfiniteDRAM()
	case "nc":
		switch {
		case r.PCBytes > 0:
			sys = dsmnc.NCP(r.NCBytes, r.PCBytes)
		case r.PCFrac > 0:
			sys = dsmnc.NCPFrac(r.NCBytes, r.PCFrac)
		default:
			sys = dsmnc.NC(r.NCBytes)
		}
	case "vb":
		switch {
		case r.PCBytes > 0:
			sys = dsmnc.VBP(r.NCBytes, r.PCBytes)
		case r.PCFrac > 0:
			sys = dsmnc.VBPFrac(r.NCBytes, r.PCFrac)
		default:
			sys = dsmnc.VB(r.NCBytes)
		}
	case "vp":
		switch {
		case r.PCBytes > 0:
			sys = dsmnc.VPP(r.NCBytes, r.PCBytes)
		case r.PCFrac > 0:
			sys = dsmnc.VPPFrac(r.NCBytes, r.PCFrac)
		default:
			sys = dsmnc.VP(r.NCBytes)
		}
	case "pc":
		sys = dsmnc.PCOnly(r.PCFrac)
	case "vxp":
		sys = dsmnc.VXPFrac(r.NCBytes, r.PCFrac, r.Threshold)
	default:
		return nil, dsmnc.System{}, dsmnc.Options{}, fmt.Errorf("%w: unknown system %q", ErrBadRequest, r.System)
	}
	if r.Threshold > 0 && r.System != "vxp" && (r.PCBytes > 0 || r.PCFrac > 0) {
		sys.Threshold = r.Threshold
	}
	if r.NCWays > 0 {
		sys.NCWays = r.NCWays
	}
	return bench, sys, opt, nil
}
