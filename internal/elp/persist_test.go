package elp

import (
	"reflect"
	"testing"

	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// warmupOptions enables both reuse layers the warmup blob persists.
func warmupOptions() Options {
	return Options{PlanCacheSize: 64, ResultCacheSize: 64}
}

// TestWarmupRoundTrip is the warmup acceptance test at the elp layer: a
// runtime that exported its warm state and a fresh runtime that imported
// it over the same catalog must answer identically — replayed parameters
// as result-cache hits, new parameters as plan-cache hits — with
// responses DeepEqual to the warm original's, simulated latencies and
// cache markers included.
func TestWarmupRoundTrip(t *testing.T) {
	f := newFixture(t, 30000, warmupOptions())
	for _, src := range cacheQueries {
		if _, err := answer(f.rt, parse(t, src)); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	// Capture the warm runtime's steady-state answers (second run: plan
	// AND result caches hot).
	warm := map[string]*Response{}
	for _, src := range cacheQueries {
		resp, err := answer(f.rt, parse(t, src))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if resp.ResultCache != "hit" {
			t.Fatalf("%q: warm ResultCache = %q, want hit", src, resp.ResultCache)
		}
		warm[src] = resp
	}

	blob := f.rt.ExportWarmup()
	cold := New(f.cat, f.clus, warmupOptions())
	plans, results, err := cold.ImportWarmup(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plans == 0 || results == 0 {
		t.Fatalf("restored %d plans, %d results; want both > 0", plans, results)
	}
	if got, want := cold.results.Len(), f.rt.results.Len(); got != want {
		t.Errorf("restored result cache holds %d entries, exporter held %d", got, want)
	}

	// Replayed parameters: served from the restored result cache,
	// bit-identical to the never-restarted runtime's warm answers.
	for _, src := range cacheQueries {
		resp, err := answer(cold, parse(t, src))
		if err != nil {
			t.Fatalf("%q after import: %v", src, err)
		}
		if resp.ResultCache != "hit" {
			t.Errorf("%q after import: ResultCache = %q, want hit", src, resp.ResultCache)
		}
		if !reflect.DeepEqual(resp, warm[src]) {
			t.Errorf("%q after import: response differs from warm original\n got %+v\nwant %+v",
				src, resp, warm[src])
		}
	}

	// New parameters on a known template: the restored prepared state
	// (nil prepQ/prepPlan — always recompiles) must yield the same
	// answer and decisions as the live runtime's prepared state.
	for _, src := range []string{
		`SELECT AVG(time) FROM sessions WHERE city = 'city3' ERROR WITHIN 25%`,
		`SELECT SUM(time) FROM sessions WHERE city = 'city5' OR os = 'OSX' ERROR WITHIN 20%`,
	} {
		want, err := answer(f.rt, parse(t, src))
		if err != nil {
			t.Fatalf("%q live: %v", src, err)
		}
		got, err := answer(cold, parse(t, src))
		if err != nil {
			t.Fatalf("%q restored: %v", src, err)
		}
		if got.Cache != "hit" {
			t.Errorf("%q restored: Cache = %q, want hit (plan restored)", src, got.Cache)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: restored response differs from live\n got %+v\nwant %+v", src, got, want)
		}
	}
}

// TestWarmupStaleEpochSkipped: entries whose catalog epochs moved on
// (a sample refresh between snapshot and restore) must not be restored.
func TestWarmupStaleEpochSkipped(t *testing.T) {
	f := newFixture(t, 8000, warmupOptions())
	src := `SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 25%`
	if _, err := answer(f.rt, parse(t, src)); err != nil {
		t.Fatal(err)
	}
	blob := f.rt.ExportWarmup()

	// Bump the table's epoch: re-add one family (a refresh).
	fam, err := sample.Build(f.tab, types.NewColumnSet("city"),
		sample.GeometricCaps(2000, 4, 4, 8),
		sample.BuildConfig{Seed: 3, Nodes: 100, Place: storage.InMemory, RowsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.cat.AddFamily("sessions", fam); err != nil {
		t.Fatal(err)
	}

	cold := New(f.cat, f.clus, warmupOptions())
	plans, results, err := cold.ImportWarmup(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plans != 0 || results != 0 {
		t.Fatalf("stale warmup restored %d plans, %d results; want 0, 0", plans, results)
	}
}

// TestWarmupCorruptBlobRejected: flipping any byte of the blob must
// yield either a clean error with nothing applied, or a successful
// import whose restored entries still answer correctly (field-level
// mutations that keep the structure valid but break references are
// skipped as stale).
func TestWarmupCorruptBlobRejected(t *testing.T) {
	f := newFixture(t, 8000, warmupOptions())
	srcs := cacheQueries[:3]
	for _, src := range srcs {
		if _, err := answer(f.rt, parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	blob := f.rt.ExportWarmup()

	for off := 0; off < len(blob); off += len(blob)/257 + 1 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		cold := New(f.cat, f.clus, warmupOptions())
		if _, _, err := cold.ImportWarmup(mut, nil); err != nil {
			continue // rejected whole: nothing applied
		}
		// Import accepted: whatever was restored must still serve
		// correct answers (or miss and re-execute).
		want := New(f.cat, f.clus, Options{})
		for _, src := range srcs {
			got, err := answer(cold, parse(t, src))
			if err != nil {
				t.Fatalf("off %d %q: %v", off, src, err)
			}
			ref, err := answer(want, parse(t, src))
			if err != nil {
				t.Fatal(err)
			}
			if !estimatesClose(got, ref) {
				t.Fatalf("off %d: corrupt import served wrong answer for %q", off, src)
			}
		}
	}

	// Truncations: must never panic; error or degraded-but-correct.
	for off := 0; off < len(blob); off += len(blob)/97 + 1 {
		cold := New(f.cat, f.clus, warmupOptions())
		cold.ImportWarmup(blob[:off], nil)
	}
}

// estimatesClose compares two responses' point estimates bit-exactly —
// a deliberately weaker check than DeepEqual for the corruption test,
// where cache markers legitimately differ between hit and re-executed
// paths.
func estimatesClose(a, b *Response) bool {
	if (a.Result == nil) != (b.Result == nil) {
		return false
	}
	if a.Result == nil {
		return true
	}
	if len(a.Result.Groups) != len(b.Result.Groups) {
		return false
	}
	for i, g := range a.Result.Groups {
		h := b.Result.Groups[i]
		if len(g.Estimates) != len(h.Estimates) {
			return false
		}
		for j := range g.Estimates {
			if g.Estimates[j].Point != h.Estimates[j].Point &&
				!(g.Estimates[j].Point != g.Estimates[j].Point && h.Estimates[j].Point != h.Estimates[j].Point) {
				return false
			}
		}
	}
	return true
}
