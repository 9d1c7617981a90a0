package exec

import "context"

// Counts is what a run of a plan reports about its read, without the answer:
// the blocks it read, the rows it read and the rows that passed the
// predicate — the integers §4.1.1 compares candidate families by.
type Counts struct {
	Blocks      int
	RowsScanned int64
	RowsMatched int64
}

// Selectivity returns matched/scanned (the s_q of §4.2).
func (c Counts) Selectivity() float64 { return selectivity(c.RowsMatched, c.RowsScanned) }

// Count returns the Counts a run of p over in would report: Blocks is
// len(in.Pruned(p).Blocks), RowsScanned and RowsMatched are the Result's.
// They are the same because Count reads what the scan reads — every block
// its zones do not prune, the zone check skipped where in was pruned for p
// already — and selects rows with the same kernels over the same chunk rows;
// a row count and a population count are integers, so how the rows are cut
// into calls moves neither. What Count leaves out is everything after
// selection: no span is cut at a metadata run, nothing is folded, merged or
// finalized, and it runs on the caller. Blocks whose zones prove the
// predicate count their rows without selection, as the scan's do; a join
// plan selects over the widened chunks, as its scan does (joinRuntime).
// ctx is checked once, on entry; its error is the only one Count returns.
func Count(ctx context.Context, p *Plan, in Input, joins []JoinSpec) (Counts, error) {
	if err := ctx.Err(); err != nil {
		return Counts{}, err
	}
	jr := newJoinRuntime(p, joins)
	rt := jr.runtime(p)
	prune := len(rt.bounds) > 0 && in.prunedFor != rt

	sc := getScratch()
	defer putScratch(sc)
	var c Counts
	var open span // open.d is nil when no stretch is open
	count := func() {
		if open.d == nil {
			return
		}
		n := open.hi - open.lo
		c.RowsScanned += int64(n)
		if open.allTrue {
			c.RowsMatched += int64(n)
		} else {
			s := open
			if jr != nil {
				s = jr.widen(open, sc)
			}
			bm, _ := sc.selectRows(rt.sel, s)
			c.RowsMatched += int64(bitmapCount(bm))
		}
		open.d = nil
	}
	for _, b := range in.Blocks {
		if prune && !zoneMayMatch(b, rt.bounds) {
			continue
		}
		c.Blocks++
		if b.N == 0 {
			continue
		}
		if next := (span{d: b.Chunk, lo: b.Off, hi: b.Off + b.N, allTrue: zonesProve(b, rt)}); open.d != nil && open.extends(next) {
			open.hi = next.hi
		} else {
			count()
			open = next
		}
	}
	count()
	return c, nil
}
