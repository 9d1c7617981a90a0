package elp

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// joinFixture extends the standard fixture with a dimension table mapping
// OS → vendor, registered in the same catalog.
func joinFixture(t *testing.T, rows int, opt Options) *fixture {
	t.Helper()
	f := newFixture(t, rows, opt)
	schema := types.NewSchema(
		types.Column{Name: "os", Kind: types.KindString},
		types.Column{Name: "vendor", Kind: types.KindString},
	)
	dim := storage.NewTable("vendors", schema)
	b := storage.NewBuilder(dim, 8, 1, storage.InMemory)
	for _, r := range [][2]string{
		{"Win7", "Microsoft"}, {"OSX", "Apple"}, {"Linux", "Community"}, {"iOS", "Apple"},
	} {
		b.AppendRow(types.Row{types.Str(r[0]), types.Str(r[1])})
	}
	b.Finish()
	f.cat.Register(dim)
	return f
}

func TestJoinUnboundedExact(t *testing.T) {
	f := joinFixture(t, 20000, Options{})
	resp, err := answer(f.rt, parse(t,
		`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Apple'`))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decisions[0].UsedBase {
		t.Error("unbounded join should be exact")
	}
	// Apple = OSX + iOS rows; cross-check against two exact counts.
	osx, _ := answer(f.rt, parse(t, `SELECT COUNT(*) FROM sessions WHERE os = 'OSX'`))
	ios, _ := answer(f.rt, parse(t, `SELECT COUNT(*) FROM sessions WHERE os = 'iOS'`))
	want := osx.Result.Groups[0].Estimates[0].Point + ios.Result.Groups[0].Estimates[0].Point
	if got := resp.Result.Groups[0].Estimates[0].Point; got != want {
		t.Errorf("join count = %g, want %g", got, want)
	}
}

func TestJoinBoundedUsesSample(t *testing.T) {
	// Scale matters: latency advantages only appear when the base table
	// is logically large.
	f := joinFixture(t, 40000, Options{Scale: 2e4})
	resp, err := answer(f.rt, parse(t,
		`SELECT AVG(time) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Apple' ERROR WITHIN 10%`))
	if err != nil {
		t.Fatal(err)
	}
	d := resp.Decisions[0]
	if d.UsedBase {
		t.Fatal("bounded join should use a sample")
	}
	// §2.1 case (i): the [os,url] family contains the join key os.
	exact, err := answer(f.rt, parse(t,
		`SELECT AVG(time) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Apple'`))
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Result.Groups[0].Estimates[0]
	want := exact.Result.Groups[0].Estimates[0].Point
	if math.Abs(got.Point-want)/want > 0.12 {
		t.Errorf("join estimate %.2f vs truth %.2f", got.Point, want)
	}
	if resp.SimLatency >= exact.SimLatency {
		t.Errorf("bounded join (%gs) should beat exact (%gs)", resp.SimLatency, exact.SimLatency)
	}
}

func TestJoinGroupByDimensionColumn(t *testing.T) {
	f := joinFixture(t, 30000, Options{})
	resp, err := answer(f.rt, parse(t,
		`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os GROUP BY vendor ERROR WITHIN 15%`))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Groups) != 3 {
		t.Fatalf("vendors = %d, want 3 (Apple, Community, Microsoft)", len(resp.Result.Groups))
	}
	exact, _ := answer(f.rt, parse(t,
		`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os GROUP BY vendor`))
	for i, g := range resp.Result.Groups {
		want := exact.Result.Groups[i].Estimates[0].Point
		got := g.Estimates[0].Point
		if math.Abs(got-want)/want > 0.2 {
			t.Errorf("%s: %g vs %g", g.KeyString(), got, want)
		}
	}
}

func TestJoinAdmissibilityRejected(t *testing.T) {
	// A dimension too big for cluster memory, joined on a key with no
	// stratified sample, must be rejected (§2.1).
	f := newFixture(t, 5000, Options{Scale: 1e9}) // huge scale: nothing "fits"
	schema := types.NewSchema(
		types.Column{Name: "genre", Kind: types.KindString},
		types.Column{Name: "label", Kind: types.KindString},
	)
	dim := storage.NewTable("genres", schema)
	b := storage.NewBuilder(dim, 8, 1, storage.OnDisk)
	for i := 0; i < 20000; i++ {
		b.AppendRow(types.Row{types.Str(fmt.Sprintf("g%d", i)), types.Str("x")})
	}
	b.Finish()
	f.cat.Register(dim)
	// genre is in no stratified family ([city], [os,url]).
	_, err := answer(f.rt, parse(t,
		`SELECT COUNT(*) FROM sessions JOIN genres ON genre = genre ERROR WITHIN 10%`))
	if err == nil || !strings.Contains(err.Error(), "does not fit in cluster memory (§2.1)") {
		t.Fatalf("join without key sample or in-memory dim: err = %v, want the §2.1 admissibility error", err)
	}
}

func TestJoinUnknownDimTable(t *testing.T) {
	f := newFixture(t, 1000, Options{})
	if _, err := answer(f.rt, parse(t,
		`SELECT COUNT(*) FROM sessions JOIN missing ON os = os ERROR WITHIN 10%`)); err == nil {
		t.Error("unknown dimension table should error")
	}
}

// TestTimeBoundJoinCountsBroadcast: a join ships its dimension tables to
// every node once per query (§2.1), on top of the probe and the read, so a
// WITHIN bound must leave room for the broadcast both when it picks the
// level and when it lets an error-bounded probe escalate. Each bound sits
// half a broadcast above probe + read of a level past the probe's: the
// answer must still come in under it.
func TestTimeBoundJoinCountsBroadcast(t *testing.T) {
	f := joinFixture(t, 40000, Options{Scale: 2e4})
	for _, tmpl := range []string{
		`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Apple' WITHIN %s SECONDS`,
		`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Apple' AND city = 'city150' ERROR WITHIN 20%% WITHIN %s SECONDS`,
	} {
		q := parse(t, fmt.Sprintf(tmpl, "1000"))
		key, params := sqlparser.Normalize(q)
		pq, err := f.rt.prepare(context.Background(), q, key, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		fam, plan := pq.disjuncts[0].fam, pq.prepPlan
		pv := f.rt.probeView(fam)
		broadcast := f.rt.broadcastCost(pq.joins)
		if broadcast <= 0 {
			t.Fatal("the join prices no broadcast")
		}
		for lvl := pv.Level + 1; lvl < fam.Resolutions(); lvl++ {
			budget := probePrice(len(viewInput(pv, plan).Blocks)) +
				f.rt.readPrice(pq.entry, plan, fam.View(lvl).DeltaBlocks(pv)) + broadcast/2
			src := fmt.Sprintf(tmpl, strconv.FormatFloat(budget, 'f', -1, 64))
			resp, err := answer(f.rt, parse(t, src))
			if err != nil {
				t.Fatal(err)
			}
			if d := resp.Decisions[0]; d.UsedBase || resp.SimLatency > budget {
				t.Errorf("%q: answered at L%d (base %v) in %v simulated seconds, over the bound by %v",
					src, d.View.Level, d.UsedBase, resp.SimLatency, resp.SimLatency-budget)
			}
		}
	}
}
