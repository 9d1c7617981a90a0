package elp

import (
	"strings"
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
// are the same, and a window's price never changes. Prices are kept per
// table and dropped when a snapshot of a newer epoch asks for one — after
// a sample refresh, a maintenance change or a reload — so the windows of
// replaced families do not stay pinned.
type priceMemo struct {
	mu     sync.RWMutex
	tables map[string]*tablePrices
}

// tablePrices are the window prices of one table and its families at one
// catalog epoch.
type tablePrices struct {
	epoch  uint64
	prices map[window]float64
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
	name, key := strings.ToLower(entry.Table.Name), window{&w[0], len(w)}
	pm := &rt.prices
	pm.mu.RLock()
	tp := pm.tables[name]
	price, ok := 0.0, false
	if tp != nil && tp.epoch == entry.Epoch {
		price, ok = tp.prices[key]
	}
	pm.mu.RUnlock()
	if ok {
		return price
	}
	price = rt.latencyOf(w)
	pm.mu.Lock()
	defer pm.mu.Unlock()
	switch tp = pm.tables[name]; {
	case tp == nil || tp.epoch < entry.Epoch:
		// First of this table, or a newer snapshot: older prices go.
		if pm.tables == nil {
			pm.tables = make(map[string]*tablePrices)
		}
		tp = &tablePrices{epoch: entry.Epoch, prices: make(map[window]float64)}
		pm.tables[name] = tp
	case tp.epoch > entry.Epoch:
		return price // a stale snapshot's window: priced, not kept
	}
	tp.prices[key] = price
	return price
}
