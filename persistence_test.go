package blinkdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"blinkdb/internal/blockfile"
)

// persistQueries exercise both caches and several planning paths. They
// are chosen to produce NaN-free estimates so reflect.DeepEqual is a
// sound comparison.
var persistQueries = []string{
	`SELECT AVG(sessiontime) FROM sessions WHERE city = 'city1' ERROR WITHIN 20%`,
	`SELECT COUNT(*) FROM sessions WHERE os = 'OSX' ERROR WITHIN 20%`,
	`SELECT AVG(sessiontime) FROM sessions GROUP BY city WITHIN 2 SECONDS`,
	`SELECT SUM(sessiontime) FROM sessions WHERE city = 'city2' OR os = 'Linux' ERROR WITHIN 20%`,
	`SELECT COUNT(*) FROM sessions GROUP BY os`,
}

// bootEngine opens an engine over dataDir, loads the deterministic
// sessions table and runs CreateSamples — the full boot sequence a
// server would run. It returns the engine and the sample report. Its
// Scale cuts blocks of ≈120 rows (≈21 B a row), so every family spans
// several blocks.
func bootEngine(t testing.TB, dataDir string) (*Engine, *SampleReport) {
	t.Helper()
	eng := Open(Config{
		Workers: 2, Seed: 42, Scale: 1e5,
		DataDir: dataDir,
	})
	load := eng.CreateTable("sessions",
		Col("city", String), Col("os", String), Col("sessiontime", Float))
	oses := []string{"Win7", "OSX", "Linux"}
	state := uint64(1)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for i := 0; i < 6000; i++ {
		city := fmt.Sprintf("city%d", next(1+i%40))
		if err := load.Append(city, oses[next(3)], float64(next(10000))/17.0); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.CreateSamples("sessions", SampleOptions{
		BudgetFraction: 1.0,
		K:              500,
		Templates: []Template{
			{Columns: []string{"city"}, Weight: 0.7},
			{Columns: []string{"os"}, Weight: 0.3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, rep
}

// TestWarmBootSamplesLoad: a second boot over the same DataDir must
// load the persisted families instead of rebuilding, produce an
// identical sample report, and answer every query bit-identically to
// the engine that built them.
func TestWarmBootSamplesLoad(t *testing.T) {
	dir := t.TempDir()
	cold, coldRep := bootEngine(t, dir)
	warm, warmRep := bootEngine(t, dir)

	if notes := warm.PersistenceNotes(); len(notes) != 0 {
		t.Fatalf("warm boot fell back to cold paths: %v", notes)
	}
	if !reflect.DeepEqual(coldRep, warmRep) {
		t.Errorf("sample reports differ:\n cold %+v\n warm %+v", coldRep, warmRep)
	}
	for _, src := range persistQueries {
		want, err := cold.Query(src)
		if err != nil {
			t.Fatalf("%q cold: %v", src, err)
		}
		got, err := warm.Query(src)
		if err != nil {
			t.Fatalf("%q warm: %v", src, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%q: warm-boot answer differs\n cold %+v\n warm %+v", src, want, got)
		}
	}
}

// TestRestartBitIdentical is the tentpole acceptance test: an engine
// that snapshots its warm state, "dies", and boots again over the same
// DataDir must be indistinguishable from the engine that never
// restarted — every response DeepEqual, including simulated latencies
// and cache markers, with replayed queries served as result-cache hits
// and new constants as plan-cache hits.
func TestRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	twin, _ := bootEngine(t, dir)

	// Warm both caches (miss, then hit), keep the steady-state answers.
	for _, src := range persistQueries {
		if _, err := twin.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	steady := map[string]*Result{}
	for _, src := range persistQueries {
		res, err := twin.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if res.ResultCache != "hit" {
			t.Fatalf("%q: twin steady-state ResultCache = %q, want hit", src, res.ResultCache)
		}
		steady[src] = res
	}

	costs := map[string]float64{}
	for _, ts := range twin.Telemetry().Templates {
		c, ok := twin.TemplateWallSeconds(ts.Key)
		if !ok {
			t.Fatalf("%q: observed but no cost estimate", ts.Key)
		}
		costs[ts.Key] = c
	}
	if err := twin.SnapshotWarmup(WarmupState{}); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process boots over the same DataDir.
	restarted, _ := bootEngine(t, dir)
	rep, err := restarted.RestoreWarmup()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatalf("RestoreWarmup found nothing; notes: %v", restarted.PersistenceNotes())
	}
	if rep.Plans == 0 || rep.Results == 0 {
		t.Fatalf("restored plans=%d results=%d; want both > 0 (notes: %v)",
			rep.Plans, rep.Results, restarted.PersistenceNotes())
	}
	// Every cost estimate, bit for bit, before the restarted engine has
	// observed anything; the replays are not observations.
	if rep.Costs != len(costs) {
		t.Errorf("restored %d cost estimates, want %d", rep.Costs, len(costs))
	}
	for k, want := range costs {
		if got, ok := restarted.TemplateWallSeconds(k); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%q: restored cost estimate %v (ok=%v), want the twin's %v", k, got, ok, want)
		}
	}
	if n := len(restarted.Telemetry().Templates); n != 0 {
		t.Errorf("restored estimates show as %d observed templates before any query", n)
	}

	// Replayed queries: result-cache hits, bit-identical to the twin.
	for _, src := range persistQueries {
		got, err := restarted.Query(src)
		if err != nil {
			t.Fatalf("%q restarted: %v", src, err)
		}
		if got.ResultCache != "hit" {
			t.Errorf("%q restarted: ResultCache = %q, want hit", src, got.ResultCache)
		}
		if !reflect.DeepEqual(got, steady[src]) {
			t.Errorf("%q: restarted answer differs from twin\n twin %+v\n rest %+v",
				src, steady[src], got)
		}
	}

	// New constants on restored templates: plan-cache hits, identical
	// to the twin answering the same fresh queries.
	for _, src := range []string{
		`SELECT AVG(sessiontime) FROM sessions WHERE city = 'city7' ERROR WITHIN 20%`,
		`SELECT SUM(sessiontime) FROM sessions WHERE city = 'city9' OR os = 'Win7' ERROR WITHIN 20%`,
	} {
		want, err := twin.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restarted.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if got.PlanCache != "hit" {
			t.Errorf("%q restarted: PlanCache = %q, want hit", src, got.PlanCache)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: restarted new-constant answer differs\n twin %+v\n rest %+v",
				src, want, got)
		}
	}
}

// TestSnapshotDuringConcurrentQueries: SnapshotWarmup must be safe —
// and the snapshot usable — while queries are executing (run under
// -race in CI). Every concurrent query must still answer correctly.
func TestSnapshotDuringConcurrentQueries(t *testing.T) {
	dir := t.TempDir()
	eng, _ := bootEngine(t, dir)
	for _, src := range persistQueries {
		if _, err := eng.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := persistQueries[(g+i)%len(persistQueries)]
				if _, err := eng.Query(src); err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		if err := eng.SnapshotWarmup(WarmupState{}); err != nil {
			t.Errorf("snapshot %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// The last snapshot taken under load must restore cleanly.
	restarted, _ := bootEngine(t, dir)
	rep, err := restarted.RestoreWarmup()
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Plans == 0 {
		t.Fatalf("snapshot under load did not restore (rep=%+v, notes=%v)",
			rep, restarted.PersistenceNotes())
	}
	for _, src := range persistQueries {
		want, err := eng.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restarted.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: restored-under-load answer differs", src)
		}
	}
}

// TestSnapshotWarmupConcurrent: SnapshotWarmup calls may overlap — a
// server's periodic snapshot with its drain's final one — and the
// directory they leave must boot warm, with nothing noted (run under
// -race in CI).
func TestSnapshotWarmupConcurrent(t *testing.T) {
	dir := t.TempDir()
	eng, _ := bootEngine(t, dir)
	for _, src := range persistQueries {
		if _, err := eng.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := eng.SnapshotWarmup(WarmupState{}); err != nil {
					t.Errorf("snapshot: %v", err)
				}
				if notes := eng.PersistenceNotes(); len(notes) != 0 {
					t.Errorf("snapshot noted: %v", notes)
				}
			}
		}()
	}
	wg.Wait()

	restarted, _ := bootEngine(t, dir)
	rep, err := restarted.RestoreWarmup()
	if err != nil {
		t.Fatal(err)
	}
	if notes := restarted.PersistenceNotes(); rep == nil || len(notes) != 0 {
		t.Fatalf("warm boot after concurrent snapshots: rep=%+v, notes=%v", rep, notes)
	}
}

// TestStaleWarmupDropped: when the data under the snapshot changed (a
// sample refresh after the snapshot was taken), the restored engine
// must drop the warmup entries — stale → rebuild, never wrong.
func TestStaleWarmupDropped(t *testing.T) {
	dir := t.TempDir()
	eng, _ := bootEngine(t, dir)
	for _, src := range persistQueries {
		if _, err := eng.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.SnapshotWarmup(WarmupState{}); err != nil {
		t.Fatal(err)
	}
	// Refresh AFTER the snapshot: every cache entry is stale from here,
	// so the second snapshot carries no query to replay.
	if _, ok, err := eng.RefreshSamples("sessions"); err != nil || !ok {
		t.Fatalf("refresh: ok=%v err=%v", ok, err)
	}
	if err := eng.SnapshotWarmup(WarmupState{}); err != nil {
		t.Fatal(err)
	}
	// Corrupt one persisted family segment so the warm sample load
	// degrades too: the boot must fall back to a cold rebuild.
	segs, err := filepath.Glob(filepath.Join(dir, "samples", "sessions", "fam*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no persisted family segments: %v", err)
	}
	blob, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(segs[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	restarted, _ := bootEngine(t, dir)
	notes := restarted.PersistenceNotes()
	if len(notes) == 0 {
		t.Fatalf("corrupt segment loaded without a note")
	}
	found := false
	for _, n := range notes {
		if strings.Contains(n, "rebuilding") {
			found = true
		}
	}
	if !found {
		t.Errorf("notes lack a rebuild reason: %v", notes)
	}
	rep, err := restarted.RestoreWarmup()
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil && (rep.Plans != 0 || rep.Results != 0) {
		t.Errorf("stale warmup restored plans=%d results=%d; want 0", rep.Plans, rep.Results)
	}
	// The engine still answers — cold, correctly.
	for _, src := range persistQueries {
		if _, err := restarted.Query(src); err != nil {
			t.Errorf("%q after stale fallback: %v", src, err)
		}
	}
}

// TestWarmupVersionSkewBootsCachesCold: a data dir whose warmup file was
// written by another warmup file version — version 1 kept the caches'
// contents, not the queries behind them — loads its samples warm but boots
// both caches cold, with the reason noted, and answers like a fresh engine.
func TestWarmupVersionSkewBootsCachesCold(t *testing.T) {
	dir := t.TempDir()
	eng, _ := bootEngine(t, dir)
	for _, src := range persistQueries {
		if _, err := eng.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.SnapshotWarmup(WarmupState{}); err != nil {
		t.Fatal(err)
	}

	// Rewrite the manifest's leading version field to 1; the segment's
	// checksums are re-sealed by writing the segment anew.
	path := filepath.Join(dir, "warmup.seg")
	seg, err := blockfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	metas := map[string][]byte{}
	for _, name := range []string{"manifest", "elp", "admission"} {
		blob, ok := seg.Meta(name)
		if !ok {
			t.Fatalf("warmup.seg has no %q section", name)
		}
		metas[name] = append([]byte(nil), blob...)
	}
	seg.Close()
	binary.LittleEndian.PutUint32(metas["manifest"], 1)
	err = blockfile.WriteSegment(path, func(w *blockfile.Writer) error {
		for _, name := range []string{"manifest", "elp", "admission"} {
			w.PutMeta(name, metas[name])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	restarted, _ := bootEngine(t, dir)
	if notes := restarted.PersistenceNotes(); len(notes) != 0 {
		t.Fatalf("the samples should have loaded warm: %v", notes)
	}
	rep, err := restarted.RestoreWarmup()
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil && (rep.Plans != 0 || rep.Results != 0) {
		t.Fatalf("restored %+v; want no plans, no results", rep)
	}
	if notes := strings.Join(restarted.PersistenceNotes(), "\n"); !strings.Contains(notes, "manifest version 1 (want 2)") {
		t.Fatalf("PersistenceNotes do not give the version skew: %q", notes)
	}
	fresh, _ := bootEngine(t, t.TempDir())
	for _, src := range persistQueries {
		want, err := fresh.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restarted.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if got.ResultCache == "hit" || got.PlanCache == "hit" {
			t.Errorf("%q: first answer after the skew came from a cache (result %q, plan %q)", src, got.ResultCache, got.PlanCache)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%q: answer differs from a fresh engine's\n fresh     %+v\n restarted %+v", src, want, got)
		}
	}
}

// TestRestoreDropsNonFiniteCosts: a warmup file's cost estimates that are
// not positive and finite (NaN, +Inf, 0, −1) seed nothing — a NaN price
// would reach the admission backlog — while a valid one beside them is
// restored.
func TestRestoreDropsNonFiniteCosts(t *testing.T) {
	dir := t.TempDir()
	var manifest, adm blockfile.Enc
	manifest.U32(warmupFileVersion)
	bad := map[string]float64{"nan": math.NaN(), "inf": math.Inf(1), "zero": 0, "negative": -1}
	adm.U32(uint32(len(bad) + 1))
	for k, v := range bad {
		adm.Str(k)
		adm.F64(v)
	}
	adm.Str("valid")
	adm.F64(0.5)
	err := blockfile.WriteSegment(filepath.Join(dir, "warmup.seg"), func(w *blockfile.Writer) error {
		w.PutMeta("manifest", manifest.Bytes())
		w.PutMeta("admission", adm.Bytes())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := Open(Config{DataDir: dir})
	defer eng.Close()
	rep, err := eng.RestoreWarmup()
	if err != nil || rep == nil {
		t.Fatalf("RestoreWarmup: %+v, %v; notes %v", rep, err, eng.PersistenceNotes())
	}
	if rep.Costs != 1 {
		t.Errorf("restored %d cost estimates, want 1", rep.Costs)
	}
	if got, ok := eng.TemplateWallSeconds("valid"); !ok || got != 0.5 {
		t.Errorf("valid cost estimate: %v (ok=%v), want 0.5", got, ok)
	}
	for k := range bad {
		if got, ok := eng.TemplateWallSeconds(k); ok {
			t.Errorf("%q: restored cost estimate %v", k, got)
		}
	}
}

// TestCorruptWarmupFileColdBoots: truncations and bit flips of
// warmup.seg must degrade to a cold boot with a note — no panic, no
// restored garbage.
func TestCorruptWarmupFileColdBoots(t *testing.T) {
	dir := t.TempDir()
	eng, _ := bootEngine(t, dir)
	for _, src := range persistQueries {
		if _, err := eng.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.SnapshotWarmup(WarmupState{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "warmup.seg")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func() []byte) {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mutate(), 0o644); err != nil {
				t.Fatal(err)
			}
			restarted, _ := bootEngine(t, dir)
			rep, err := restarted.RestoreWarmup()
			if err != nil {
				t.Fatalf("RestoreWarmup must fail soft: %v", err)
			}
			if rep != nil && (rep.Plans != 0 || rep.Results != 0) {
				t.Fatalf("corrupt warmup restored plans=%d results=%d", rep.Plans, rep.Results)
			}
			for _, src := range persistQueries[:2] {
				if _, err := restarted.Query(src); err != nil {
					t.Fatalf("%q after corrupt warmup: %v", src, err)
				}
			}
		})
	}
	check("truncated", func() []byte { return orig[:len(orig)/3] })
	check("bitflip-tail", func() []byte {
		mut := append([]byte(nil), orig...)
		mut[len(mut)-10] ^= 0x01
		return mut
	})
	check("bitflip-body", func() []byte {
		mut := append([]byte(nil), orig...)
		mut[len(mut)/2] ^= 0x80
		return mut
	})
	check("empty", func() []byte { return nil })
	check("wrong-magic", func() []byte {
		mut := append([]byte(nil), orig...)
		mut[0] ^= 0xFF
		return mut
	})
}

// TestRetiredLayoutSegmentColdBoots: a data dir whose sample segment was
// written by an earlier format (the blockfile fixtures: the retired row
// block layout, format 1's one-column-set-per-block layout from before
// blocks became windows on chunks, format 2's chunks with 32-bit
// dictionary codes, format 3's with every int column stored as int64s,
// format 4's with every dictionary column's codes stored as 2-byte
// ones, and format 5's with every block's zones and byte size stored) must
// boot cold — the reason in PersistenceNotes, the
// rebuilt families answering exactly like a fresh engine's — never panic
// and never serve a half-loaded family.
func TestRetiredLayoutSegmentColdBoots(t *testing.T) {
	for file, version := range map[string]int{"row_layout_v1.seg": 1, "columnar_blocks_v1.seg": 1, "chunked_v2.seg": 2, "chunked_v3.seg": 3, "chunked_v4.seg": 4, "chunked_v5.seg": 5} {
		dir := t.TempDir()
		fresh, freshRep := bootEngine(t, dir)
		retired, err := os.ReadFile(filepath.Join("internal", "blockfile", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "samples", "sessions", "fam0.seg"), retired, 0o644); err != nil {
			t.Fatal(err)
		}
		rebooted, rep := bootEngine(t, dir)
		notes := strings.Join(rebooted.PersistenceNotes(), "\n")
		if !strings.Contains(notes, fmt.Sprintf("unsupported format version %d", version)) || !strings.Contains(notes, "rebuilding") {
			t.Fatalf("%s: PersistenceNotes do not record the retired-format fallback: %q", file, notes)
		}
		if !reflect.DeepEqual(freshRep, rep) {
			t.Errorf("%s: cold rebuild's sample report differs:\n fresh %+v\n rebuilt %+v", file, freshRep, rep)
		}
		for _, src := range persistQueries {
			want, err := fresh.Query(src)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rebooted.Query(src)
			if err != nil {
				t.Fatalf("%s: %q after the fallback: %v", file, src, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: %q: answer differs after the cold rebuild\n fresh   %+v\n rebuilt %+v", file, src, want, got)
			}
		}
	}
}
