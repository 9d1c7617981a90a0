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
		parts[i] = runPartial(p, p.runtime(), in, r.Lo, r.Hi, nil, &colScratch{})
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

// TestMergerAllocations pins that streaming does not cost allocations
// over the old materialize-then-fold shape: folding partials one at a
// time through a Merger allocates no more than folding the prebuilt
// slice (both go through identical group cloning; streaming adds only
// the fixed-size buffers).
func TestMergerAllocations(t *testing.T) {
	tab := randomWeightedTable(t, 23, 4000, 64)
	p, parts := streamParts(t, tab, `SELECT COUNT(*), SUM(sessiontime), AVG(sessiontime) FROM sessions GROUP BY city`)

	materialized := testing.AllocsPerRun(20, func() {
		// Reference shape: collect the full slice, then fold it.
		buf := make([]*Partial, len(parts))
		copy(buf, parts)
		mergePartials(p, buf, 0.95)
	})
	streaming := testing.AllocsPerRun(20, func() {
		m := NewMerger(p, len(parts))
		for i, pt := range parts {
			m.Add(i, pt)
		}
		finishSpan(m, 0.95, m.w, nil)
	})
	if streaming > materialized+2 {
		t.Errorf("streaming merge allocates more than materialized fold: %.0f vs %.0f allocs",
			streaming, materialized)
	}
}
