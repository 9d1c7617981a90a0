package telemetry

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// TestRegistryBounded observes more distinct templates than the registry
// holds: the first MaxTemplates keep their own entries, the rest share
// OtherKey's, so the snapshot still counts every observation, a folded
// key has no observed latency of its own, and the heap the registry
// keeps stays under MaxTemplates entries' worth — an entry being its
// histograms plus 4 KiB for the allocator's rounding, the key and its map
// slot.
func TestRegistryBounded(t *testing.T) {
	const keys = 6000
	key := func(i int) string { return fmt.Sprintf("SELECT COUNT(*) FROM t WHERE c%d = ?", i) }
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	reg := NewRegistry()
	for i := 0; i < keys; i++ {
		reg.Observe(key(i), Observation{WallSeconds: 0.01, Executed: true, RowsScanned: 10})
	}
	grown := int64(heap()) - int64(before)

	snap := reg.Snapshot()
	if len(snap.Templates) != MaxTemplates+1 {
		t.Fatalf("%d templates in the snapshot, want %d and the other entry", len(snap.Templates), MaxTemplates)
	}
	var total, other uint64
	for _, ts := range snap.Templates {
		total += ts.Queries
		if ts.Key == OtherKey {
			other = ts.Queries
		}
	}
	if total != keys || other != keys-MaxTemplates {
		t.Fatalf("snapshot counts %d queries, %d under %q; want %d and %d", total, other, OtherKey, keys, keys-MaxTemplates)
	}
	if _, ok := reg.ObservedWallSeconds(key(0)); !ok {
		t.Fatal("a template the registry holds has no observed latency")
	}
	if s, ok := reg.ObservedWallSeconds(key(keys - 1)); ok {
		t.Fatalf("a folded template reports its own observed latency %g", s)
	}
	if _, ok := reg.Costs()[OtherKey]; ok || len(reg.Costs()) != MaxTemplates {
		t.Fatalf("Costs() holds %d estimates, want one per held template and none for %q", len(reg.Costs()), OtherKey)
	}
	if limit := int64(MaxTemplates) * int64(unsafe.Sizeof(TemplateStats{})+4096); grown > limit {
		t.Fatalf("the registry keeps %d bytes for %d keys, more than %d", grown, keys, limit)
	}
	runtime.KeepAlive(reg)
}

// TestCostEstimate pins the update rule bit for bit: the first
// observation sets the estimate, each later one folds in as
// 0.7·prev + 0.3·obs, and observations of 0, −1, NaN and +Inf leave it
// where it was.
func TestCostEstimate(t *testing.T) {
	reg := NewRegistry()
	if c, ok := reg.ObservedWallSeconds("q"); ok {
		t.Fatalf("unobserved template has estimate %g", c)
	}
	want := 0.0
	for i, v := range []float64{0.2, 0, 1.0, -1, math.NaN(), 0.05, math.Inf(1), 3e-4} {
		reg.Observe("q", Observation{WallSeconds: v})
		switch {
		case !(v > 0) || math.IsInf(v, 1):
		case want == 0:
			want = v
		default:
			want = 0.7*want + 0.3*v
		}
		got, ok := reg.ObservedWallSeconds("q")
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after observation %d (%g): estimate %v (ok=%v), want %v", i, v, got, ok, want)
		}
	}
	// 0.2, then 1.0, 0.05 and 3e-4 folded in: the bits the admission
	// controller's EWMA gave the same sequence.
	if math.Float64bits(want) != 0x3fccf3cb3e5753a2 {
		t.Fatalf("the sequence folded to %v (%#x)", want, math.Float64bits(want))
	}
	got := reg.Costs()
	if len(got) != 1 || got["q"] != want {
		t.Fatalf("Costs() = %v, want q:%v", got, want)
	}
	got["q"] = 99 // a copy: the registry keeps its own
	if c, _ := reg.ObservedWallSeconds("q"); c != want {
		t.Fatalf("writing to Costs()'s map moved the estimate to %v", c)
	}
}

// TestSeedCost pins what a restore may seed: a template with no estimate
// takes the seed, one with a live estimate keeps it, values that are not
// positive and finite are dropped, and seeding stops at MaxTemplates. A
// template that was only seeded is not in Snapshot, so its query count
// stays that of real queries.
func TestSeedCost(t *testing.T) {
	reg := NewRegistry()
	reg.Observe("live", Observation{WallSeconds: 2})
	if reg.SeedCost("live", 9) {
		t.Fatal("a seed replaced a live estimate")
	}
	if got, _ := reg.ObservedWallSeconds("live"); got != 2 {
		t.Fatalf("live estimate %v, want 2", got)
	}
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if reg.SeedCost("bad", v) {
			t.Fatalf("seeded %v", v)
		}
	}
	if !reg.SeedCost("seeded", 0.25) || reg.SeedCost("seeded", 0.5) {
		t.Fatal("a seed must set an empty estimate once")
	}
	if got, ok := reg.ObservedWallSeconds("seeded"); !ok || got != 0.25 {
		t.Fatalf("seeded estimate %v (ok=%v), want 0.25", got, ok)
	}
	snap := reg.Snapshot()
	if len(snap.Templates) != 1 || snap.Templates[0].Key != "live" || snap.Templates[0].Queries != 1 {
		t.Fatalf("snapshot %+v, want only the observed template with one query", snap.Templates)
	}
	// The seed is the first value the EWMA folds from.
	reg.Observe("seeded", Observation{WallSeconds: 1})
	if got, _ := reg.ObservedWallSeconds("seeded"); got != 0.7*0.25+0.3*1 {
		t.Fatalf("seeded then observed: %v", got)
	}
	if n := len(reg.Snapshot().Templates); n != 2 {
		t.Fatalf("%d templates after observing the seeded one, want 2", n)
	}

	for i := len(reg.Costs()); i < MaxTemplates; i++ {
		if !reg.SeedCost(fmt.Sprintf("k%d", i), 1) {
			t.Fatalf("seed %d refused below MaxTemplates", i)
		}
	}
	if reg.SeedCost("one-too-many", 1) {
		t.Fatal("seeded past MaxTemplates")
	}
	if _, ok := reg.ObservedWallSeconds("one-too-many"); ok {
		t.Fatal("a key past MaxTemplates has an estimate")
	}
}
