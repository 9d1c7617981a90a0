package telemetry

import (
	"fmt"
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
	if limit := int64(MaxTemplates) * int64(unsafe.Sizeof(TemplateStats{})+4096); grown > limit {
		t.Fatalf("the registry keeps %d bytes for %d keys, more than %d", grown, keys, limit)
	}
	runtime.KeepAlive(reg)
}
