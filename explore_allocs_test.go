//go:build !race

package blinkdb

import "testing"

// TestExploreColdQueryAllocs pins what one cold explore_cold request
// allocates, so per-block costs cannot creep back into the probe path:
// with one Partial per 300-row block a request made ≈8.0k allocations
// (60 group maps, merges and clones per probe, four probes); with
// row-budgeted partials ≈1.9k; with count-only candidate probes — one group
// and one accumulator each, the plan itself once on the winner — and view
// block lists that are windows, not copies, 784. With accumulators that keep
// moments per sampling weight this measures 796: a probe of a stratified
// family meets several rates, so its accumulator and its partial's weight
// tally each allocate a class list (+14.5 a request), compiling a
// conjunction flattens it into a slice (+2), and nothing takes per-group
// batch buffers or a rate per row any more (−4.5). It measured 702 before
// the candidates were compared by exec.Count — selection and a popcount on
// the caller, no partial, group, merge or goroutine — and 577 after. The
// ceiling is about a fifth over that. Every query here is a new template,
// so each one prepares and probes. Not under -race: the detector allocates.
func TestExploreColdQueryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 250k-row engine")
	}
	eng := exploreEngine(t, 250000)
	queries := exploreQueries()
	before := eng.Stats()
	const runs = 400 // + AllocsPerRun's warm-up call: 401 of the 648 templates
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := eng.Query(queries[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	d := eng.Stats().Delta(before)
	if d.Prepares != runs+1 || d.ProbeExecs < 3*(runs+1) {
		t.Fatalf("queries were not cold: %d prepares, %d probes over %d queries", d.Prepares, d.ProbeExecs, runs+1)
	}
	const ceiling = 700
	t.Logf("cold explore query: %.0f allocs/op (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("cold explore query allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}

// TestLoaderAppendAllocs pins Loader.Append at under one allocation a row
// for rows of the benchmark's shape: the loader converts each row into one
// of two reused staging batches, and the builders copy its values out, so
// what is left is the amortized growth of the column accumulators and a
// few allocations per batch handed to the encoder — three of them inside
// the measured rows.
func TestLoaderAppendAllocs(t *testing.T) {
	load := Open(Config{Scale: 1e4, CacheTables: true}).CreateTable("sessions", exploreColumns()...)
	const rows = 3*batchRows + 1000
	exploreRows(rows, rows, func(rows [][]any) {
		next := 0
		allocs := testing.AllocsPerRun(len(rows)-1, func() {
			if err := load.Append(rows[next]...); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if allocs >= 1 {
			t.Fatalf("Loader.Append: %.0f allocations a row, want < 1", allocs)
		}
	})
}
