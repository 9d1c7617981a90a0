package elp

import (
	"sync"

	"blinkdb/internal/catalog"
	"blinkdb/internal/exec"
	"blinkdb/internal/storage"
)

// Price each window once. Resolution selection prices the same block
// windows on every request of a template — each resolution's view and its
// delta past the probe, and the base table — and pricing one walks its
// blocks twice (cluster.WorkFromBlocks, storage.PartitionBlocksByNode).
// When zone pruning keeps a window whole, the price is a function of the
// window and the runtime (cluster and scale) alone, so the runtime keeps
// it; a pruned window is priced as it is read, every time.

// priceMemo holds the price of every whole window a runtime has priced. A
// window is named by the address of its first element and its length: a
// family's windows are subslices of one block list (sample.Family), a base
// table's is its block list, so two names agree exactly when the windows
// are the same, and a window's price never changes. The prices are of one
// catalog version and are dropped when a snapshot of a newer version asks
// for one — after a sample refresh, a maintenance change or a reload — so
// the windows of replaced families do not stay pinned.
type priceMemo struct {
	mu      sync.RWMutex
	version uint64
	prices  map[window]float64
}

// window names a block window: its first element and its length.
type window struct {
	first **storage.Block
	n     int
}

// tablePrice is latencyOf over the whole base table of entry.
func (rt *Runtime) tablePrice(entry *catalog.Entry) float64 {
	return rt.windowPrice(entry, entry.Table.Blocks, entry.Table.Blocks)
}

// readPrice is latencyOf(plan.Prune(w)) for w, a window of entry's table
// or of one of its families: what reading w costs the plan.
func (rt *Runtime) readPrice(entry *catalog.Entry, plan *exec.Plan, w []*storage.Block) float64 {
	return rt.windowPrice(entry, w, plan.Prune(w))
}

// windowPrice is latencyOf(read) for read, the blocks of window w that a
// plan reads: kept in the memo when they are all of w — pruning returns w
// itself then — and priced afresh otherwise.
func (rt *Runtime) windowPrice(entry *catalog.Entry, w, read []*storage.Block) float64 {
	if len(read) != len(w) || len(w) == 0 {
		return rt.latencyOf(read)
	}
	key := window{&w[0], len(w)}
	pm := &rt.prices
	pm.mu.RLock()
	price, ok := pm.prices[key]
	ok = ok && pm.version == entry.Version
	pm.mu.RUnlock()
	if ok {
		return price
	}
	price = rt.latencyOf(w)
	pm.mu.Lock()
	defer pm.mu.Unlock()
	switch {
	case pm.prices == nil || pm.version < entry.Version:
		// The first price, or a newer snapshot's: older prices go.
		pm.version, pm.prices = entry.Version, make(map[window]float64)
	case pm.version > entry.Version:
		return price // a stale snapshot's window: priced, not kept
	}
	pm.prices[key] = price
	return price
}
