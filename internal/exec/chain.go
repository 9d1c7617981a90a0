package exec

import (
	"context"
	"fmt"

	"blinkdb/internal/sample"
	"blinkdb/internal/stats"
	"blinkdb/internal/telemetry"
)

// Chain is a plan's answer over one sample family, built a resolution at a
// time the way §4.4 reads a family, or over a table, in one read: Extend
// folds in the blocks a larger resolution adds — the deltas after the
// chain's resolution — and the Result it returns is finalized at the cap of
// the resolution reached. Every scan is a chain's: RunParallel is a fresh
// chain's one read.
//
// Nothing in the chain depends on the cap it will be read at: rows are
// keyed by stratum frequency (stats.FreqKey) and weighed only at finalize,
// and inputs split into scan ranges one delta at a time (Input.ranges).
// So a chain extended to resolution ℓ, in any number of steps, has folded
// exactly the partials a scan of FromView(view ℓ) folds, in the same
// order: its Result is bit-identical to RunParallel's over that view, for
// any worker count.
//
// Extend changes the chain; Union only reads it, so a chain nobody extends
// may be finalized from several goroutines at once.
type Chain struct {
	p    *Plan
	jr   *joinRuntime // nil: a plain scan
	view sample.View  // the resolution reached; no family before the first Extend, or after a table's
	read bool         // whether Extend has run
	m    *Merger
}

// NewChain starts an empty chain of plan p, joining the fact rows with
// joins (nil: a plain scan).
func NewChain(p *Plan, joins []JoinSpec) *Chain {
	return &Chain{p: p, jr: newJoinRuntime(p, joins), m: NewMerger(p, 0)}
}

// Level returns the resolution the chain has folded through, -1 before the
// first Extend and after a table's.
func (c *Chain) Level() int {
	if c.view.Family == nil {
		return -1
	}
	return c.view.Level
}

// Extend scans in into the chain with up to workers goroutines and returns
// the answer at in's resolution. in must continue the chain: a table
// (FromTable) or FromView, on an empty chain, or FromDelta after the
// chain's level, over the chain's family — pruned or not. With joins, each
// span is widened with its rows' dimension columns before the plain span
// scan (joinRuntime); rates carry through unchanged, since dimensions are
// unsampled (§2.1).
//
// Workers re-check ctx between scan ranges, so a cancelled context stops
// the scan within one range's worth of work and a context cancelled before
// the call scans nothing; the error is then ctx.Err(), and the chain holds
// part of in and must not be used. A nil error guarantees the bit-identical
// Result. sp, when non-nil, gets the per-range and merge spans.
func (c *Chain) Extend(ctx context.Context, in Input, confidence float64, workers int, sp *telemetry.Span) (*Result, error) {
	first := in.view.Level - len(in.deltas) + 1
	if in.view.Family == nil && c.read ||
		in.view.Family != nil && (first != c.Level()+1 || c.read && in.view.Family != c.view.Family) {
		panic(fmt.Sprintf("exec: chain at resolution %d of %v extended by resolutions %d..%d of %v",
			c.Level(), c.view.Family, first, in.view.Level, in.view.Family))
	}
	c.read = true
	if err := scanInto(ctx, c.m, c.p, c.jr.runtime(c.p), in, workers, c.jr, sp); err != nil {
		return nil, err
	}
	c.view = in.view
	return finishSpan(c.m, confidence, sp), nil
}

// Union answers p, a disjunction, from chains that read its disjoint
// sub-queries (§4.1.2), each at its own cap: every chain's classes join
// the union's at their weights there, and the union is estimated once. So
// an AVG is Σwx/Σw over every part's rows, a QUANTILE is taken over every
// part's values, an estimate is Exact when every weight is 1, and groups
// are ordered and limited as any answer's. The chains are only read.
func Union(p *Plan, chains []*Chain, confidence float64) *Result {
	m := NewMerger(p, 0)
	for _, c := range chains {
		m.union(c.m)
	}
	return m.result(confidence, stats.Weights{})
}
