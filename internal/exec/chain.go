package exec

import (
	"context"
	"fmt"

	"blinkdb/internal/sample"
	"blinkdb/internal/stats"
	"blinkdb/internal/telemetry"
)

// Chain is a plan's answer over one sample family built a resolution at a
// time, the way §4.4 reads a family: Extend folds in the blocks a larger
// resolution adds — the deltas after the chain's resolution — and the
// Result it returns is finalized at the cap of the resolution reached.
//
// Nothing in the chain depends on the cap it will be read at: rows are
// keyed by stratum frequency (stats.FreqKey) and weighed only at finalize,
// and inputs split into scan ranges one delta at a time (Input.ranges).
// So a chain extended to resolution ℓ, in any number of steps, has folded
// exactly the partials a scan of FromView(view ℓ) folds, in the same
// order: its Result is bit-identical to Run's over that view, for any
// worker count.
//
// Extend changes the chain; Result only reads it, so a chain nobody extends
// may be finalized from several goroutines at once.
type Chain struct {
	p    *Plan
	jr   *joinRuntime // nil: a plain scan
	view sample.View  // the resolution reached; no family before the first Extend
	m    *Merger
}

// NewChain starts an empty chain of plan p, joining the fact rows with
// joins (nil: a plain scan).
func NewChain(p *Plan, joins []JoinSpec) *Chain {
	m := NewMerger(p, 0)
	m.owned = true // the chain's partials never leave it
	return &Chain{p: p, jr: newJoinRuntime(p, joins), m: m}
}

// Level returns the resolution the chain has folded through, -1 before the
// first Extend.
func (c *Chain) Level() int {
	if c.view.Family == nil {
		return -1
	}
	return c.view.Level
}

// Extend scans in into the chain with up to workers goroutines and returns
// the answer at in's resolution. in must continue the chain: FromView, on
// an empty chain, or FromDelta after the chain's level, over the chain's
// family — pruned or not. ctx and sp follow RunJoin's contract: workers
// re-check ctx between scan ranges and sp, when non-nil, gets the per-range
// and merge spans. After an error the chain holds part of in and must not
// be used.
func (c *Chain) Extend(ctx context.Context, in Input, confidence float64, workers int, sp *telemetry.Span) (*Result, error) {
	if first := in.view.Level - len(in.deltas) + 1; in.view.Family == nil || first != c.Level()+1 ||
		c.view.Family != nil && in.view.Family != c.view.Family {
		panic(fmt.Sprintf("exec: chain at resolution %d of %v extended by resolutions %d..%d of %v",
			c.Level(), c.view.Family, first, in.view.Level, in.view.Family))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := scanInto(ctx, c.m, c.p, c.jr.runtime(c.p), in, workers, c.jr, sp); err != nil {
		return nil, err
	}
	c.view = in.view
	return finishSpan(c.m, confidence, c.weights(), sp), nil
}

// weights weighs the chain's classes at its resolution's cap.
func (c *Chain) weights() stats.Weights {
	if c.view.Family == nil {
		return stats.Weights{}
	}
	return stats.Weights{Cap: c.view.Cap()}
}
