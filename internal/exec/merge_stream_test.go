package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"blinkdb/internal/storage"
)

// streamParts builds the per-range partials for one query, the input for
// the streaming-merge tests.
func streamParts(t testing.TB, tab *storage.Table, src string) (*Plan, []*Partial) {
	t.Helper()
	in := FromTable(tab)
	p := compile(t, src, tab.Schema)
	ranges := storage.PartitionBlocks(len(tab.Blocks), maxPartials)
	parts := make([]*Partial, len(ranges))
	for i, r := range ranges {
		parts[i] = runPartial(p, p.rt, in, r.Lo, r.Hi, nil, &colScratch{})
	}
	return p, parts
}

// TestMergerArrivalOrderEquivalence is the streaming-merge acceptance
// test: delivering partials in ANY arrival order must reproduce the
// in-order fold bit for bit, because the Merger buffers out-of-order
// deliveries and folds strictly by partition index.
func TestMergerArrivalOrderEquivalence(t *testing.T) {
	tab := randomWeightedTable(t, 21, 6000, 64)
	for _, src := range equivalenceQueries {
		p, parts := streamParts(t, tab, src)
		want := mergePartials(p, parts, 0.95)

		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 5; trial++ {
			p, parts := streamParts(t, tab, src) // a merger consumes its partials
			order := rng.Perm(len(parts))
			m := NewMerger(p, len(parts))
			for _, i := range order {
				m.Add(i, parts[i])
			}
			got := finishSpan(m, 0.95, m.w, nil)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("query %q: arrival order %v diverged from in-order fold", src, order)
			}
		}

		// Nil (empty-range) deliveries and partials withheld until Finish
		// must also fold in index order.
		p, parts = streamParts(t, tab, src)
		m := NewMerger(p, len(parts)+2)
		m.Add(len(parts), nil) // trailing empty range, delivered early
		for i := len(parts) - 1; i >= 1; i-- {
			m.Add(i, parts[i])
		}
		m.Add(0, parts[0])
		// index len(parts)+1 never delivered: Finish skips it.
		if got := finishSpan(m, 0.95, m.w, nil); !reflect.DeepEqual(want, got) {
			t.Fatalf("query %q: nil/withheld deliveries diverged", src)
		}
	}
}

// TestMergerReleasesFoldedPartials pins the memory property that
// motivates streaming: once the contiguous prefix is folded, the merger
// must not retain those partials.
func TestMergerReleasesFoldedPartials(t *testing.T) {
	tab := randomWeightedTable(t, 22, 3000, 64)
	p, parts := streamParts(t, tab, `SELECT COUNT(*), AVG(sessiontime) FROM sessions GROUP BY city`)
	if len(parts) < 3 {
		t.Skip("need ≥3 ranges")
	}
	m := NewMerger(p, len(parts))
	// Out-of-order delivery: index 1 waits for index 0.
	m.Add(1, parts[1])
	if m.wait[1] == nil {
		t.Fatal("out-of-order partial must be buffered")
	}
	m.Add(0, parts[0])
	if m.wait[0] != nil || m.wait[1] != nil {
		t.Fatal("folded partials must be released from the buffer")
	}
	if m.next != 2 {
		t.Fatalf("next = %d, want 2", m.next)
	}
	for i := 2; i < len(parts); i++ {
		m.Add(i, parts[i])
		if m.wait[i] != nil {
			t.Fatalf("in-order partial %d retained after fold", i)
		}
	}
}

// TestMergerAllocations pins what a streaming merge allocates, delivered in
// order and in reverse — every partial but the last waiting in the
// out-of-order window. Either way the partials' group states move into the
// fold; what is left is the merger, its window and the finalized Result.
// A merger consumes its partials, so every run folds a set of its own.
func TestMergerAllocations(t *testing.T) {
	tab := randomWeightedTable(t, 23, 4000, 64)
	const src = `SELECT COUNT(*), SUM(sessiontime), AVG(sessiontime) FROM sessions GROUP BY city`
	const runs = 20
	const ceiling = 24 // 14 measured, either order
	p, _ := streamParts(t, tab, src)
	for _, leg := range []struct {
		name    string
		reverse bool
	}{{"in-order", false}, {"reverse", true}} {
		sets := make([][]*Partial, runs+1) // AllocsPerRun calls f runs+1 times
		for i := range sets {
			_, sets[i] = streamParts(t, tab, src)
		}
		n := len(sets[0])
		if n < 3 {
			t.Fatalf("%d partials: the reverse leg needs a window", n)
		}
		allocs := testing.AllocsPerRun(runs, func() {
			parts := sets[0]
			sets = sets[1:]
			m := NewMerger(p, len(parts))
			for i := range parts {
				if leg.reverse {
					i = len(parts) - 1 - i
				}
				m.Add(i, parts[i])
			}
			finishSpan(m, 0.95, m.w, nil)
		})
		if allocs > ceiling {
			t.Errorf("%s merge of %d partials: %.0f allocs, ceiling %d", leg.name, n, allocs, ceiling)
		}
	}
}
