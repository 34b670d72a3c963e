// Package explore is the design-space exploration engine: it answers
// the question the paper poses but never runs — how should a fixed RDC
// transistor budget be split between network-cache organization, size,
// associativity, and page-cache frames?
//
// An exploration is two phases over a declarative Space spec:
//
//  1. Enumerate: the Space's axes (NC technology, size, associativity,
//     indexing organization, page-cache fraction, relocation threshold)
//     are expanded into concrete dsmnc system configurations, in a
//     canonical deterministic order.
//  2. Simulate: every point is submitted as an idempotent job through
//     a serve.Scheduler-shaped Submitter — inheriting backpressure,
//     ledger durability and lease retry — and the results are scored
//     with the paper's Equation (1) model (stats.Model) and folded into
//     the exact Pareto frontier on the (simulated remote-read stall,
//     SRAM bit-cost) plane.
//
// The package is panic-free by contract (panicfree_test.go): any spec
// bytes produce either a valid Space or an ErrBadSpace-wrapped error,
// and engine failures surface as errors, never as panics.
package explore

import "errors"

// ErrBadSpace reports a malformed or out-of-bounds exploration spec:
// oversized input, invalid JSON, unknown fields or axis values,
// out-of-range sizes, or an enumeration larger than MaxPoints.
var ErrBadSpace = errors.New("explore: bad space spec")
