package exec

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"blinkdb/internal/stats"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// viewOf lays blocks out as a sample view's input, the way FromView reads a
// family: split into len(caps) deltas of about equal block counts, delta i
// under cap caps[i] (ascending), answered at the last cap. Any block list
// stands in for a family's this way — irregular shapes, dirty rows, chunks
// cut mid-delta — which real families never are.
func viewOf(schema *types.Schema, blocks []*storage.Block, caps ...int64) Input {
	in := Input{Schema: schema, Blocks: blocks, cap: caps[len(caps)-1]}
	for i, c := range caps {
		in.deltas = append(in.deltas, delta{len(blocks) * (i + 1) / len(caps), c})
	}
	return in
}

// oracle is the naive reference evaluator every production scan must match
// bit for bit: one materialised row at a time through the interpreted
// predicate tree, each row added to each aggregate's stats.Acc on its own
// (stats.AddValues over a batch of one, which stats' tests hold to their
// row-at-a-time reference) — the row's chunk row number picks its lane,
// its key its class — and a nested loop for joins. It takes production's
// data types and otherwise shares only stats.Acc, Predicate.Eval, Block.RowAt/MetaAt and the input's
// delta layout and scan ranges with it — the last because the fold order
// (one accumulator set per range, merged in range order) is part of the
// Result's contract, not an implementation detail. It has no kernels, no
// encodings and no zone maps: it reads every block (see checkOracle for
// what that means for the two scan counters).
func oracle(p *Plan, in Input, joins []JoinSpec, conf float64) *Result {
	type group struct {
		key  []types.Value
		accs []*stats.Acc
	}
	dims := make([][]types.Row, len(joins))
	for d, j := range joins {
		for _, b := range j.Dim.Blocks {
			for i := 0; i < b.NumRows(); i++ {
				dims[d] = append(dims[d], b.RowAt(i))
			}
		}
	}
	res := &Result{Confidence: conf}
	merged := map[string]*group{}
	// Per-range state (one accumulator set per range, folded in range
	// order), the scan's weight tally and the current fact row's number,
	// class key and stratum frequency.
	var part map[string]*group
	var weighted stats.Tally
	var rowNum int
	var key stats.Key
	var freq int64
	// expand walks the join chain depth-first in dimension scan order; with
	// no joins it visits the fact row once.
	var expand func(row types.Row, depth int)
	expand = func(row types.Row, depth int) {
		if depth < len(joins) {
			j := joins[depth]
			for _, dr := range dims[depth] {
				if dr[j.RightCol].Key() == row[j.LeftCol].Key() {
					expand(append(row[:len(row):len(row)], dr...), depth+1)
				}
			}
			return
		}
		if p.Pred != nil && !p.Pred.Eval(row) {
			return
		}
		res.RowsMatched++
		weighted.Add(key, 1)
		if freq > res.MaxMatchedStratumFreq {
			res.MaxMatchedStratumFreq = freq
		}
		k := types.RowKey(row, p.GroupBy)
		g := part[k]
		if g == nil {
			g = &group{}
			for _, ci := range p.GroupBy {
				g.key = append(g.key, row[ci])
			}
			for _, a := range p.Aggs {
				g.accs = append(g.accs, stats.NewAcc(a.Kind, a.P))
			}
			part[k] = g
		}
		for ai, a := range p.Aggs {
			x := 1.0 // COUNT(*), and COUNT(col) of a non-NULL
			if a.Col >= 0 {
				if row[a.Col].IsNull() {
					continue // SQL: NULLs drop out of this aggregate only
				}
				if a.Kind != stats.AggCount {
					x = row[a.Col].AsFloat()
				}
			}
			stats.AddValues(g.accs[ai], []float64{x}, []int32{int32(rowNum)}, key)
		}
	}
	for _, r := range in.ranges() {
		part = map[string]*group{}
		for bi := r.Lo; bi < r.Hi; bi++ {
			b := in.Blocks[bi]
			floor := int64(0) // a table's rows are keyed by rate
			for d := len(in.deltas) - 1; d >= 0 && bi < in.deltas[d].end; d-- {
				floor = in.deltas[d].floor
			}
			res.BytesScanned += b.Bytes
			for i := 0; i < b.NumRows(); i++ {
				res.RowsScanned++
				meta := b.MetaAt(i)
				rowNum, key, freq = b.Off+i, stats.RateKey(meta.Rate), meta.StratumFreq
				if floor > 0 {
					key = stats.FreqKey(freq, floor)
				}
				expand(b.RowAt(i), 0)
			}
		}
		for k, g := range part {
			if have := merged[k]; have != nil {
				for ai := range have.accs {
					have.accs[ai].Merge(g.accs[ai])
				}
			} else {
				merged[k] = g
			}
		}
	}
	res.WeightedMatched = weighted.Sum(in.weights())
	if len(p.GroupBy) == 0 && len(merged) == 0 {
		g := &group{} // a global aggregate always answers, even over nothing
		for _, a := range p.Aggs {
			g.accs = append(g.accs, stats.NewAcc(a.Kind, a.P))
		}
		merged[""] = g
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := merged[keys[i]].key, merged[keys[j]].key
		for c := range a {
			if d := types.Compare(a[c], b[c]); d != 0 {
				return d < 0
			}
		}
		return keys[i] < keys[j] // Int(1) vs Float(1): equal under Compare, distinct groups
	})
	for _, k := range keys {
		g := Group{Key: merged[k].key, Estimates: make([]stats.Estimate, len(p.Aggs))}
		for ai, acc := range merged[k].accs {
			g.Estimates[ai] = acc.EstimateZ(conf, stats.ZForConfidence(conf), in.weights())
		}
		res.Groups = append(res.Groups, g)
	}
	if p.Limit > 0 && len(res.Groups) > p.Limit {
		res.Groups = res.Groups[:p.Limit]
	}
	return res
}

// checkOracle asserts that production returns the oracle's Result for 1, 3
// and 8 workers (a plain scan when joins is empty). Zone pruning is the one
// thing the oracle does not model: a pruned block holds no matching row, so
// it can only lower RowsScanned and BytesScanned and move nothing else —
// the two counters are checked as upper bounds (their exact pruned values
// are pinned by TestScanPruningSkipsBlocks), everything else by DeepEqual.
//
// Count (what a §4.1.1 candidate probe runs) is held to the plan itself:
// the rows it read and matched, and as many blocks as pruning keeps — over
// the raw input and over one pruned up front for a compiled copy of the
// plan, the two ways the ELP runtime hands it over.
func checkOracle(t testing.TB, label string, p *Plan, in Input, joins []JoinSpec) {
	t.Helper()
	want := oracle(p, in, joins, 0.95)
	rows, bytes := want.RowsScanned, want.BytesScanned
	compiled := p.WithPred(p.Pred)
	blocks := len(in.Pruned(compiled).Blocks)
	for _, w := range []int{1, 3, 8} {
		got, err := RunJoin(context.Background(), p, in, joins, 0.95, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.RowsScanned > rows || got.BytesScanned > bytes {
			t.Fatalf("%s workers=%d: scanned %d rows / %d bytes, the input holds %d / %d",
				label, w, got.RowsScanned, got.BytesScanned, rows, bytes)
		}
		want.RowsScanned, want.BytesScanned = got.RowsScanned, got.BytesScanned
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s workers=%d: production diverged from the oracle\nwant %+v\ngot  %+v", label, w, want, got)
		}
		// Pruning up front moves the scan ranges, and with them the order
		// WeightedMatched is summed in: the pruned input is its own comparison.
		pruned := in.Pruned(compiled)
		full, err := RunJoin(context.Background(), compiled, pruned, joins, 0.95, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			in   Input
			plan *Result
		}{{in, got}, {pruned, full}} {
			cnt, err := Count(context.Background(), compiled, c.in, joins)
			if err != nil {
				t.Fatal(err)
			}
			if cnt.RowsScanned != c.plan.RowsScanned || cnt.RowsMatched != c.plan.RowsMatched || cnt.Blocks != blocks {
				t.Fatalf("%s workers=%d pruned=%v: Count reports %+v, the plan's run %d rows read, %d matched over %d blocks",
					label, w, c.plan == full, cnt, c.plan.RowsScanned, c.plan.RowsMatched, blocks)
			}
		}
	}
}
