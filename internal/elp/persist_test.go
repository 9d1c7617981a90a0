package elp

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
// runtime that exported its warm state and a fresh runtime that replayed
// it over the same catalog must answer identically — replayed parameters
// as result-cache hits, new parameters as plan-cache hits, join templates
// included — with responses DeepEqual to the warm original's, simulated
// latencies and cache markers included.
func TestWarmupRoundTrip(t *testing.T) {
	const join = `SELECT AVG(time) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Apple' ERROR WITHIN 10%`
	srcs := append(append([]string(nil), cacheQueries...), join)
	f := joinFixture(t, 30000, warmupOptions())
	for _, src := range srcs {
		if _, err := answer(f.rt, parse(t, src)); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	// Capture the warm runtime's steady-state answers (second run: plan
	// AND result caches hot).
	warm := map[string]*Response{}
	for _, src := range srcs {
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
	plans, results, skipped, err := cold.ImportWarmup(blob)
	if err != nil || len(skipped) != 0 {
		t.Fatalf("import: err %v, skipped %v", err, skipped)
	}
	held := f.rt.gen.Load()
	if plans != entries(held.plans) || results != entries(held.results) {
		t.Fatalf("restored %d plans, %d results; the exporter held %d, %d",
			plans, results, entries(held.plans), entries(held.results))
	}
	if got, want := entries(cold.gen.Load().results), entries(held.results); got != want {
		t.Errorf("restored result cache holds %d entries, exporter held %d", got, want)
	}

	// Replayed parameters: served from the restored result cache,
	// bit-identical to the never-restarted runtime's warm answers.
	for _, src := range srcs {
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

	// New parameters on a known template: the replayed prepared state must
	// yield the same answer and decisions as the live runtime's.
	for _, src := range []string{
		`SELECT AVG(time) FROM sessions WHERE city = 'city3' ERROR WITHIN 25%`,
		`SELECT SUM(time) FROM sessions WHERE city = 'city5' OR os = 'OSX' ERROR WITHIN 20%`,
		`SELECT AVG(time) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Microsoft' ERROR WITHIN 10%`,
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

// TestWarmupReplaysAnswersUnderTheirState: an answer cached under a
// prepared state that was evicted since — its template re-prepared from
// other constants — must come back as it was served, not as the live
// template would answer it now.
func TestWarmupReplaysAnswersUnderTheirState(t *testing.T) {
	// One template fits the plan cache. The result cache's 16 shards hold
	// 4 answers each, so the 4 answers here never evict one another.
	opt := Options{PlanCacheSize: 1, ResultCacheSize: 64}
	srcs := []string{
		`SELECT COUNT(*) FROM sessions WHERE city = 'city150' ERROR WITHIN 20%`, // T1(P1)
		`SELECT COUNT(*) FROM sessions GROUP BY os`,                             // T2(Q1): evicts T1
		`SELECT COUNT(*) FROM sessions WHERE city = 'city1' ERROR WITHIN 20%`,   // T1(P2): evicts T2
	}
	f := newFixture(t, 30000, opt)
	for _, src := range srcs {
		if _, err := answer(f.rt, parse(t, src)); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	blob := f.rt.ExportWarmup()
	cold := New(f.cat, f.clus, opt)
	if _, _, skipped, err := cold.ImportWarmup(blob); err != nil || len(skipped) != 0 {
		t.Fatalf("import: err %v, skipped %v", err, skipped)
	}
	for _, src := range srcs {
		want, err := answer(f.rt, parse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		got, err := answer(cold, parse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if got.ResultCache != "hit" || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: restored answer differs from the twin's\n got %+v\nwant %+v", src, got, want)
		}
	}
	// T1(P3): a plan-cache hit on T1's live state, the one prepared from P2.
	src := `SELECT COUNT(*) FROM sessions WHERE city = 'city90' ERROR WITHIN 20%`
	want, err := answer(f.rt, parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	got, err := answer(cold, parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cache != "hit" || !reflect.DeepEqual(got, want) {
		t.Errorf("%q: restored plan-cache answer differs from the twin's\n got %+v\nwant %+v", src, got, want)
	}
}

// TestWarmupStaleEpochSkipped: a replay after the catalog moved on (a
// sample refresh between snapshot and restore) computes every entry
// against the catalog as it is now, so every answer equals a cache-off
// runtime's over the refreshed catalog.
func TestWarmupStaleEpochSkipped(t *testing.T) {
	f := newFixture(t, 8000, warmupOptions())
	srcs := cacheQueries[:3]
	for _, src := range srcs {
		if _, err := answer(f.rt, parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	blob := f.rt.ExportWarmup()

	// Bump the catalog version: re-add one family (a refresh).
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
	if _, _, skipped, err := cold.ImportWarmup(blob); err != nil || len(skipped) != 0 {
		t.Fatalf("import: err %v, skipped %v", err, skipped)
	}
	ref := New(f.cat, f.clus, Options{})
	for _, src := range srcs {
		want, err := answer(ref, parse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		got, err := answer(cold, parse(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripAll(got), want) {
			t.Errorf("%q: answer after the refresh differs from a cache-off runtime's\n got %+v\nwant %+v", src, got, want)
		}
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
		if _, _, _, err := cold.ImportWarmup(mut); err != nil {
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
		cold.ImportWarmup(blob[:off])
	}

	// A note is served verbatim on every hit: one other than "", "hit" or
	// "miss" rejects the blob even under a valid checksum.
	mut := bytes.Replace(blob, []byte("miss"), []byte("mi3s"), 1)
	binary.LittleEndian.PutUint32(mut, crc32.Checksum(mut[4:], warmupCRC))
	if _, _, _, err := New(f.cat, f.clus, warmupOptions()).ImportWarmup(mut); err == nil {
		t.Fatal(`import accepted a blob with note "mi3s"`)
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
