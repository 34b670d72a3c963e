package pagecache

// Policy is a page-relocation threshold policy (paper §6.2). The fixed
// policy holds one threshold for the whole run. The adaptive policy is
// per node: the threshold starts at an initial value and is incremented
// by a step whenever thrashing is detected in the page cache.
//
// Thrashing detection: every page-cache frame carries a saturating hit
// counter (hardware). When a frame is reused, the hit count minus the
// break-even count (the minimum hits that offset one relocation) is
// accumulated into a thrashing indicator. If the indicator is negative
// after a monitoring window's worth of frame reuses, the threshold is
// raised and all hit counters reset.
type Policy struct {
	adaptive  bool
	threshold uint32
	step      uint32
	breakEven int
	// windowFactor: the monitoring window is windowFactor x frames.
	windowFactor int
	window       int

	reuses int
	thrash int64
}

// Paper parameter values (§6.2).
const (
	DefaultThreshold    = 32
	DefaultStep         = 8
	DefaultBreakEven    = 12
	DefaultWindowFactor = 2
)

// NewFixedPolicy returns a policy with a constant threshold.
func NewFixedPolicy(threshold uint32) *Policy {
	return &Policy{threshold: threshold}
}

// NewAdaptivePolicy returns the paper's adaptive policy with the given
// initial threshold (32 or 64 in the evaluation) and the paper's step,
// break-even count and window factor.
func NewAdaptivePolicy(initial uint32) *Policy {
	return &Policy{
		adaptive:     true,
		threshold:    initial,
		step:         DefaultStep,
		breakEven:    DefaultBreakEven,
		windowFactor: DefaultWindowFactor,
	}
}

// bindFrames fixes the monitoring window once the page-cache size is
// known (window = windowFactor x frames).
func (p *Policy) bindFrames(frames int) {
	if p.adaptive {
		p.window = p.windowFactor * frames
		if p.window < 1 {
			p.window = 1
		}
	}
}

// Threshold returns the current relocation threshold.
func (p *Policy) Threshold() uint32 { return p.threshold }

// Adaptive reports whether the policy adapts.
func (p *Policy) Adaptive() bool { return p.adaptive }

// frameReused feeds one frame-reuse event (with the evicted frame's hit
// count) into the thrashing detector. It returns true when the threshold
// was raised, in which case it has already reset the cache's hit
// counters.
func (p *Policy) frameReused(hits int, pc *PageCache) bool {
	if !p.adaptive {
		return false
	}
	p.thrash += int64(hits - p.breakEven)
	p.reuses++
	if p.reuses < p.window {
		return false
	}
	raised := false
	if p.thrash < 0 {
		p.threshold += p.step
		pc.resetAllHitCounters()
		raised = true
	}
	p.reuses = 0
	p.thrash = 0
	return raised
}
