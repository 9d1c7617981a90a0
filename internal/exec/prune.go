package exec

import (
	"cmp"
	"math"
	"sort"
	"strings"

	"blinkdb/internal/colstore"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// Bounds is a per-column value interval implied by a predicate's
// conjunctive comparisons. Nil endpoints mean unbounded.
type Bounds struct {
	// Lo is the lower bound (nil = −∞); LoOpen excludes Lo itself.
	Lo *types.Value
	// Hi is the upper bound (nil = +∞); HiOpen excludes Hi itself.
	Hi     *types.Value
	LoOpen bool
	HiOpen bool
}

// ColumnBounds extracts per-column bounds from the conjunctive parts of a
// predicate. OR and NOT subtrees contribute no constraints (conservative:
// pruning stays correct, it just prunes less). The result maps schema
// column index → interval.
func ColumnBounds(p types.Predicate) map[int]*Bounds {
	out := map[int]*Bounds{}
	collectBounds(p, out)
	return out
}

// colBound is one ColumnBounds entry. Scans carry the bounds as a slice in
// column order: the per-block zone check walks it, and ranging over a map
// there cost more than the comparisons themselves.
type colBound struct {
	col int
	b   *Bounds
}

func boundList(bounds map[int]*Bounds) []colBound {
	out := make([]colBound, 0, len(bounds))
	for col, b := range bounds {
		out = append(out, colBound{col, b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].col < out[j].col })
	return out
}

func collectBounds(p types.Predicate, out map[int]*Bounds) {
	switch t := p.(type) {
	case *types.AndPred:
		for _, k := range t.Kids {
			collectBounds(k, out)
		}
	case *types.CmpPred:
		b := out[t.ColIdx]
		if b == nil {
			b = &Bounds{}
			out[t.ColIdx] = b
		}
		v := t.Val
		switch t.Op {
		case types.CmpEq:
			b.tightenLo(v, false)
			b.tightenHi(v, false)
		case types.CmpLt:
			b.tightenHi(v, true)
		case types.CmpLe:
			b.tightenHi(v, false)
		case types.CmpGt:
			b.tightenLo(v, true)
		case types.CmpGe:
			b.tightenLo(v, false)
		}
		// CmpNe carries no interval information.
	}
}

func (b *Bounds) tightenLo(v types.Value, open bool) {
	if b.Lo == nil || types.Compare(v, *b.Lo) > 0 {
		b.Lo, b.LoOpen = &v, open
	} else if types.Compare(v, *b.Lo) == 0 && open {
		b.LoOpen = true
	}
}

func (b *Bounds) tightenHi(v types.Value, open bool) {
	if b.Hi == nil || types.Compare(v, *b.Hi) < 0 {
		b.Hi, b.HiOpen = &v, open
	} else if types.Compare(v, *b.Hi) == 0 && open {
		b.HiOpen = true
	}
}

// zoneOverlaps reports whether the interval of cb can intersect the zone
// of column cb.col in b.
func zoneOverlaps(b *storage.Block, cb *colBound) bool {
	z, col := &b.Zones[cb.col], &b.Chunk.Cols[cb.col]
	if hi := cb.b.Hi; hi != nil {
		c := cmpEnd(col, z.Lo, z.Null&storage.MinNull != 0, hi)
		if c > 0 || (c == 0 && cb.b.HiOpen) {
			return false
		}
	}
	if lo := cb.b.Lo; lo != nil {
		c := cmpEnd(col, z.Hi, z.Null&storage.MaxNull != 0, lo)
		if c < 0 || (c == 0 && cb.b.LoOpen) {
			return false
		}
	}
	return true
}

// cmpEnd is types.Compare(e, *v) for an end e of a zone of col: NULL when
// null is set, else the value payload p stands for (storage.Zone). An int
// against an int column's payload and a string against a dictionary's
// string compare typed, as do strings stored in runs or a value stream;
// everything else compares by types.Compare, the payload decoded
// (storage.ZoneEnd).
func cmpEnd(col *colstore.Column, p uint64, null bool, v *types.Value) int {
	if null {
		if v.Kind == types.KindNull {
			return 0
		}
		return -1
	}
	switch col.Enc {
	case colstore.EncInt:
		if v.Kind == types.KindInt {
			return cmp.Compare(int64(p), v.I)
		}
	case colstore.EncDict:
		if v.Kind == types.KindString {
			return strings.Compare(col.Dict[p], v.S)
		}
	case colstore.EncRLE:
		return cmpStored(&col.RunVals[p], v)
	case colstore.EncValue:
		return cmpStored(&col.Values[p], v)
	}
	return types.Compare(storage.ZoneEnd(col, p, false), *v)
}

// cmpStored is types.Compare(*e, *v), typed when both are strings
// (types.Compare starts with the int-int case itself).
func cmpStored(e, v *types.Value) int {
	if e.Kind == types.KindString && v.Kind == types.KindString {
		return strings.Compare(e.S, v.S)
	}
	return types.Compare(*e, *v)
}

// conjunctiveLeaves returns the predicate's comparison leaves when the
// predicate is a PURE conjunction of them (Cmp leaves under And nodes,
// TruePred allowed), and nil otherwise. Only a pure conjunction lets the
// all-true zone shortcut equate "every leaf holds for every row" with
// "the predicate holds for every row"; OR/NOT/unknown subtrees disable it.
func conjunctiveLeaves(p types.Predicate) []*types.CmpPred {
	out := []*types.CmpPred{}
	if !collectLeaves(p, &out) {
		return nil
	}
	return out
}

func collectLeaves(p types.Predicate, out *[]*types.CmpPred) bool {
	switch t := p.(type) {
	case types.TruePred:
		return true
	case *types.CmpPred:
		*out = append(*out, t)
		return true
	case *types.AndPred:
		for _, k := range t.Kids {
			if !collectLeaves(k, out) {
				return false
			}
		}
		return true
	}
	return false
}

// zoneOrderSafe reports whether v may participate in interval implication:
// types.Compare must behave as a transitive total order between v and
// every value a zone could bracket. Numeric magnitudes ≥ 2^53 break that
// (int→float rounding makes distinct values compare equal), and NaN
// compares unordered — both bail out. Strings, bools and NULL are safe.
func zoneOrderSafe(v types.Value) bool {
	const maxExact = int64(1) << 53
	switch v.Kind {
	case types.KindInt:
		return v.I < maxExact && v.I > -maxExact
	case types.KindFloat:
		return math.Abs(v.F) < float64(maxExact) // NaN fails too
	}
	return true
}

// zoneImpliesLeaf reports whether EVERY value between the ends of the
// zone of column t.ColIdx in b (under types.Compare — NULLs included, since
// zones extend through them as the minimum) satisfies the comparison leaf
// t. Sound because, after the zoneOrderSafe guards, Compare is a
// transitive total order over the zone's bracket and the constant, and
// every scan kernel decides each row exactly by
// cmpPass(Compare(rowVal, val), opFlags).
func zoneImpliesLeaf(b *storage.Block, t *types.CmpPred) bool {
	z, col := &b.Zones[t.ColIdx], &b.Chunk.Cols[t.ColIdx]
	minNull, maxNull := z.Null&storage.MinNull != 0, z.Null&storage.MaxNull != 0
	if !zoneOrderSafe(t.Val) || !endOrderSafe(col, z.Lo, minNull) || !endOrderSafe(col, z.Hi, maxNull) {
		return false
	}
	cmin, cmax := cmpEnd(col, z.Lo, minNull, &t.Val), cmpEnd(col, z.Hi, maxNull, &t.Val)
	switch t.Op {
	case types.CmpLt:
		return cmax < 0
	case types.CmpLe:
		return cmax <= 0
	case types.CmpGt:
		return cmin > 0
	case types.CmpGe:
		return cmin >= 0
	case types.CmpEq:
		return cmin == 0 && cmax == 0
	case types.CmpNe:
		return cmax < 0 || cmin > 0
	}
	return false
}

// endOrderSafe is zoneOrderSafe for an end of a zone of col (see cmpEnd),
// read off the payload: decoding it through storage.ZoneEnd made an int
// block's zone checks a third slower (BenchmarkZoneCheck).
func endOrderSafe(col *colstore.Column, p uint64, null bool) bool {
	switch {
	case null:
		return true
	case col.Enc == colstore.EncInt:
		return zoneOrderSafe(types.Int(int64(p)))
	case col.Enc == colstore.EncFloat:
		return zoneOrderSafe(types.Float(math.Float64frombits(p)))
	case col.Enc == colstore.EncRLE:
		return zoneOrderSafe(col.RunVals[p])
	case col.Enc == colstore.EncValue:
		return zoneOrderSafe(col.Values[p])
	}
	return true // a string or a bool
}

// zoneImpliesPred is the all-true third state of zone classification: it
// reports whether the block's zones prove the (purely conjunctive)
// predicate holds for EVERY row, letting the scan skip predicate
// evaluation entirely and batch-aggregate the whole block. Requires each
// leaf's column to be NaN-free across the block's chunk (a hidden NaN
// fails ordered comparisons without moving the zone) with a zone whose
// bracket implies the leaf. Purely an evaluation shortcut: a false
// return only means "evaluate normally", so results are bit-identical
// either way.
func zoneImpliesPred(b *storage.Block, leaves []*types.CmpPred) bool {
	for _, t := range leaves {
		ci := t.ColIdx
		if ci >= len(b.Zones) || !b.Chunk.Cols[ci].NaNFree || !zoneImpliesLeaf(b, t) {
			return false
		}
	}
	return true
}

// Prune returns the blocks whose zone maps may hold rows satisfying the
// plan's own predicate (blocks without zone maps are kept), using the
// bounds compiled with the plan instead of re-deriving them: the blocks
// a scan of p would read, which is also the list the cost model prices.
func (p *Plan) Prune(blocks []*storage.Block) []*storage.Block {
	kept, _ := pruneBlocks(blocks, p.rt.bounds)
	return kept
}

// pruneBlocks returns blocks itself when every block survives — the common
// case on the planning path, which prunes each resolution of a family
// several times per request — and a fresh list from the first pruned block
// on. Callers only read the result.
func pruneBlocks(blocks []*storage.Block, bounds []colBound) ([]*storage.Block, float64) {
	if len(bounds) == 0 {
		return blocks, 0
	}
	kept, pruned := blocks, false
	var total, keptBytes int64
	for i, blk := range blocks {
		total += blk.Bytes
		switch {
		case zoneMayMatch(blk, bounds):
			keptBytes += blk.Bytes
			if pruned {
				kept = append(kept, blk)
			}
		case !pruned:
			pruned = true
			kept = append(make([]*storage.Block, 0, len(blocks)-1), blocks[:i]...)
		}
	}
	if total == 0 {
		return kept, 0
	}
	frac := 1 - float64(keptBytes)/float64(total)
	return kept, math.Max(0, frac)
}
