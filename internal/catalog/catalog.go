// Package catalog is BlinkDB-Go's metastore (§5): it registers base tables
// and the sample families built over them, and answers the family-lookup
// queries the runtime sample selection needs (§4.1) — "which stratified
// families exist whose column set covers this query's columns?".
//
// Concurrency contract: Lookup returns an immutable point-in-time snapshot
// of a table's entry. Mutators (Register, AddFamily, DropFamily) never
// touch a published snapshot — they install fresh family slices under the
// catalog lock (copy-on-write) — so readers may hold a snapshot across
// arbitrary work, including full query execution, without further locking.
//
// Every mutation also bumps the catalog's one version, a counter shared by
// all of its tables. The version is the invalidation token for anything
// derived from a snapshot (the ELP runtime's plan and result caches): once
// Version() has moved past the version a cached artifact was computed
// under, a sample was rebuilt, refreshed or dropped, or a table was
// (re)loaded, and the artifact must not be served. Invalidation is
// catalog-wide: a change to one table retires what was derived from every
// other table too.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// Entry is a point-in-time snapshot of one base table with its sample
// families, as returned by Lookup. The Families slice is never mutated
// after publication; a later AddFamily/DropFamily installs a new slice in
// the catalog and bumps the catalog version instead.
type Entry struct {
	Table    *storage.Table
	Families []*sample.Family
	// Version is the catalog's version when the snapshot was taken.
	Version uint64
}

// Uniform returns the table's uniform family, or nil.
func (e *Entry) Uniform() *sample.Family {
	for _, f := range e.Families {
		if f.IsUniform() {
			return f
		}
	}
	return nil
}

// Stratified returns the non-uniform families.
func (e *Entry) Stratified() []*sample.Family {
	var out []*sample.Family
	for _, f := range e.Families {
		if !f.IsUniform() {
			out = append(out, f)
		}
	}
	return out
}

// CoveringFamilies returns stratified families whose column set is a
// superset of phi, sorted by ascending column count then key — §4.1.1
// picks the first (fewest columns).
func (e *Entry) CoveringFamilies(phi types.ColumnSet) []*sample.Family {
	var out []*sample.Family
	for _, f := range e.Families {
		if f.IsUniform() {
			continue
		}
		if phi.SubsetOf(f.Phi) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phi.Len() != out[j].Phi.Len() {
			return out[i].Phi.Len() < out[j].Phi.Len()
		}
		return out[i].Phi.Key() < out[j].Phi.Key()
	})
	return out
}

// Catalog is a concurrency-safe table registry.
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	// version is bumped under mu by every mutation and read without it.
	version atomic.Uint64
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{entries: make(map[string]*Entry)}
}

// Register adds a base table. Re-registering a name replaces the entry
// (and bumps the version, invalidating snapshots of the old data).
func (c *Catalog) Register(t *storage.Table) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[strings.ToLower(t.Name)] = &Entry{Table: t}
	return &Entry{Table: t, Version: c.version.Add(1)}
}

// AddFamily attaches a sample family to a registered table. Only one
// family per column set is kept; re-adding replaces it (sample refresh).
// The family list is replaced copy-on-write so existing Lookup snapshots
// stay valid, and the version is bumped.
func (c *Catalog) AddFamily(table string, f *sample.Family) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(table)
	e, ok := c.entries[key]
	if !ok {
		return fmt.Errorf("catalog: unknown table %q", table)
	}
	fams := make([]*sample.Family, len(e.Families), len(e.Families)+1)
	copy(fams, e.Families)
	replaced := false
	for i, old := range fams {
		if old.Phi.Equal(f.Phi) {
			fams[i] = f
			replaced = true
			break
		}
	}
	if !replaced {
		fams = append(fams, f)
	}
	c.entries[key] = &Entry{Table: e.Table, Families: fams}
	c.version.Add(1)
	return nil
}

// DropFamily removes the family on the given column set (copy-on-write,
// version bumped).
func (c *Catalog) DropFamily(table string, phi types.ColumnSet) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(table)
	e, ok := c.entries[key]
	if !ok {
		return fmt.Errorf("catalog: unknown table %q", table)
	}
	for i, f := range e.Families {
		if f.Phi.Equal(phi) {
			fams := make([]*sample.Family, 0, len(e.Families)-1)
			fams = append(fams, e.Families[:i]...)
			fams = append(fams, e.Families[i+1:]...)
			c.entries[key] = &Entry{Table: e.Table, Families: fams}
			c.version.Add(1)
			return nil
		}
	}
	return fmt.Errorf("catalog: table %q has no family on %s", table, phi)
}

// Lookup returns an immutable snapshot of the entry for a table,
// stamped with the catalog's current version.
func (c *Catalog) Lookup(table string) (*Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[strings.ToLower(table)]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", table)
	}
	return &Entry{Table: e.Table, Families: e.Families, Version: c.version.Load()}, nil
}

// Version returns the catalog's current version: 0 for an empty catalog,
// then one more for every Register, AddFamily and DropFamily on any table.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// Tables returns the registered table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
