// Package sample implements BlinkDB's sample creation machinery (§3.1):
// stratified samples S(φ,K) that cap the frequency of every distinct value
// of a column set φ at K, organised into multi-resolution families
// SFam(φ) = {S(φ,Ki)} with exponentially decreasing caps Ki = ⌊K1/cⁱ⌋.
//
// Families are stored physically as NON-OVERLAPPING delta block sets
// (paper Fig. 4): the smallest sample is delta 0; each coarser resolution
// adds delta i. A sample at resolution i is the union of deltas 0..i, so a
// family costs only as much storage as its largest member, and a query
// that probed resolution 0 can be extended to resolution i by reading only
// the missing deltas (§4.4 intermediate-data reuse).
//
// Uniform samples are the φ = ∅ special case: a single stratum containing
// every row, capped at the desired sample size.
package sample

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"blinkdb/internal/colstore"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// BuildConfig controls physical layout of built samples.
type BuildConfig struct {
	// RowsPerBlock is the size of the priced block, a window on a physical
	// chunk (default 8192).
	RowsPerBlock int
	// Nodes is the striping width for round-robin block placement.
	Nodes int
	// Place is the storage tier for the blocks.
	Place storage.Placement
	// Seed makes sampling deterministic.
	Seed int64
}

func (c BuildConfig) normalize() BuildConfig {
	if c.RowsPerBlock <= 0 {
		c.RowsPerBlock = 8192
	}
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	return c
}

// Family is a multi-resolution sample family SFam(φ).
type Family struct {
	// Phi is the stratification column set; empty for uniform families.
	Phi types.ColumnSet
	// Caps holds the per-resolution frequency caps in ascending order:
	// Caps[0] is the smallest (probe) sample, Caps[len-1] is K1.
	Caps []int64
	// Deltas[i] holds the rows added when moving from resolution i-1 to
	// i; Deltas[0] is the smallest sample itself. Rows carry
	// StratumFreq metadata so per-resolution rates can be derived.
	Deltas []*storage.Table

	// blocks is every delta's block list end to end and ends[i] the length
	// of the prefix that is resolution i, so a view's blocks are a subslice
	// (see index). Deltas' own lists must not change once a family is built.
	blocks []*storage.Block
	ends   []int

	schema    *types.Schema
	baseRows  int64
	numStrata int64
	// tailCount is Δ(φ) relative to the largest cap: the number of
	// distinct φ-values with frequency < K1 (§3.2.1 non-uniformity).
	tailCount int64
}

// Resolutions returns the number of resolutions in the family.
func (f *Family) Resolutions() int { return len(f.Caps) }

// Schema returns the sampled table's schema.
func (f *Family) Schema() *types.Schema { return f.schema }

// IsUniform reports whether this is the uniform (φ = ∅) family.
func (f *Family) IsUniform() bool { return f.Phi.Empty() }

// StorageBytes returns the family's physical footprint — the size of the
// largest sample only, since smaller resolutions share its blocks.
func (f *Family) StorageBytes() int64 {
	var n int64
	for _, d := range f.Deltas {
		n += d.Bytes()
	}
	return n
}

// StorageRows returns the row count of the largest sample.
func (f *Family) StorageRows() int64 {
	var n int64
	for _, d := range f.Deltas {
		n += d.NumRows()
	}
	return n
}

// index builds the cumulative block list behind View.Blocks and
// View.DeltaBlocks. Every constructor of a Family calls it once, before the
// family is shared, so the query path only ever reads it.
func (f *Family) index() {
	n := 0
	for _, d := range f.Deltas {
		n += len(d.Blocks)
	}
	f.blocks = make([]*storage.Block, 0, n)
	f.ends = make([]int, len(f.Deltas))
	for i, d := range f.Deltas {
		f.blocks = append(f.blocks, d.Blocks...)
		f.ends[i] = len(f.blocks)
	}
}

// View returns the sample at the given resolution (0 = smallest).
func (f *Family) View(level int) View {
	if level < 0 {
		level = 0
	}
	if level >= len(f.Caps) {
		level = len(f.Caps) - 1
	}
	return View{Family: f, Level: level}
}

// Largest returns the highest-fidelity resolution.
func (f *Family) Largest() View { return f.View(len(f.Caps) - 1) }

// Label names the family for display: its column set, or "uniform" —
// the uniform family's column set is empty and would render as an empty
// set otherwise.
func (f *Family) Label() string {
	if f.IsUniform() {
		return "uniform"
	}
	return f.Phi.String()
}

// String renders e.g. "SFam([city], K=100..100000, 4 resolutions)".
func (f *Family) String() string {
	if f.IsUniform() {
		return fmt.Sprintf("SFam(uniform, %d resolutions)", len(f.Caps))
	}
	return fmt.Sprintf("SFam(%s, K=%d..%d, %d resolutions)",
		f.Phi, f.Caps[0], f.Caps[len(f.Caps)-1], len(f.Caps))
}

// View is one sample S(φ, Caps[Level]) of a family: the union of delta
// block sets 0..Level.
type View struct {
	Family *Family
	Level  int
}

// Cap returns this view's frequency cap K.
func (v View) Cap() int64 { return v.Family.Caps[v.Level] }

// Blocks returns the block set backing this resolution (deltas 0..Level):
// a window on the family's own list, read-only, with its capacity clipped
// so an append copies instead of writing into the next delta.
func (v View) Blocks() []*storage.Block {
	hi := v.Family.ends[v.Level]
	return v.Family.blocks[:hi:hi]
}

// DeltaBlocks returns only the blocks NOT contained in the other (smaller)
// view — the §4.4 reuse path: having scanned `smaller`, a query needs to
// read just these blocks to upgrade to v. Like Blocks, the result is a
// clipped read-only window.
func (v View) DeltaBlocks(smaller View) []*storage.Block {
	lo, hi := 0, v.Family.ends[v.Level]
	if smaller.Family == v.Family {
		lo = v.Family.ends[smaller.Level]
	}
	if lo >= hi {
		return nil
	}
	return v.Family.blocks[lo:hi:hi]
}

// Rows returns the number of rows in this resolution.
func (v View) Rows() int64 {
	var n int64
	for i := 0; i <= v.Level; i++ {
		n += v.Family.Deltas[i].NumRows()
	}
	return n
}

// String renders e.g. "S([city], K=1000)".
func (v View) String() string {
	if v.Family.IsUniform() {
		return fmt.Sprintf("U(n=%d)", v.Cap())
	}
	return fmt.Sprintf("S(%s, K=%d)", v.Family.Phi, v.Cap())
}

// GeometricCaps builds the paper's cap sequence: Ki = ⌊K1/cⁱ⌋ for
// 0 ≤ i < m, returned ascending (smallest first). Caps below minCap are
// dropped; at least one cap (K1) is always returned.
func GeometricCaps(k1 int64, c float64, m int, minCap int64) []int64 {
	if c <= 1 {
		c = 2
	}
	if minCap < 1 {
		minCap = 1
	}
	var caps []int64
	k := float64(k1)
	for i := 0; i < m; i++ {
		ki := int64(math.Floor(k))
		if ki < minCap && i > 0 {
			break
		}
		caps = append(caps, ki)
		k /= c
	}
	// Reverse to ascending order.
	for i, j := 0, len(caps)-1; i < j; i, j = i+1, j-1 {
		caps[i], caps[j] = caps[j], caps[i]
	}
	return caps
}

// Build constructs SFam(φ) from a base table. caps must be ascending
// (GeometricCaps output). An empty φ builds a uniform family whose caps
// are interpreted as target row counts.
func Build(base *storage.Table, phi types.ColumnSet, caps []int64, cfg BuildConfig) (*Family, error) {
	if len(caps) == 0 {
		return nil, fmt.Errorf("sample: no caps given")
	}
	for i := 1; i < len(caps); i++ {
		if caps[i] < caps[i-1] {
			return nil, fmt.Errorf("sample: caps must be ascending, got %v", caps)
		}
	}
	cfg = cfg.normalize()

	// Resolve φ to schema indices (empty φ → uniform: single stratum).
	var idx []int
	for _, col := range phi.Columns() {
		i, err := base.Schema.MustIndex(col)
		if err != nil {
			return nil, fmt.Errorf("sample: %w", err)
		}
		idx = append(idx, i)
	}

	// Pass 1: number each base row's stratum (Strata ids are equal exactly
	// when RowKeys are) and counting-sort the (chunk, row) locators by id:
	// stratum id is locs[at[id]:at[id+1]], its rows in base order.
	chunks := base.Chunks()
	strata := colstore.NewStrata(idx)
	ids := make([]uint32, 0, base.NumRows())
	for _, b := range base.Blocks {
		ids = strata.IDs(b.Chunk, b.Off, b.Off+b.N, ids)
	}
	n := strata.Len()
	at := make([]int, n+2)
	for _, id := range ids {
		at[id+2]++
	}
	for id := 2; id < len(at); id++ {
		at[id] += at[id-1] // at[id+1] is where stratum id starts
	}
	locs := make([]colstore.Loc, len(ids))
	ci := -1 // chunks[ci] holds the block
	for _, b := range base.Blocks {
		if ci < 0 || chunks[ci] != b.Chunk {
			ci++
		}
		for ri, id := range ids[:b.N] {
			locs[at[id+1]] = colstore.Loc{Chunk: int32(ci), Row: int32(b.Off + ri)}
			at[id+1]++ // until it is where stratum id+1 starts
		}
		ids = ids[b.N:]
	}
	// §3.1: store strata sorted by φ (by RowKey) for clustering.
	keys := make([]string, n)
	order := make([]int, n)
	for id := range order {
		keys[id], order[id] = strata.Key(uint32(id)), id
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })

	rng := rand.New(rand.NewSource(cfg.Seed))
	fam := &Family{
		Phi:       phi,
		Caps:      append([]int64{}, caps...),
		schema:    base.Schema,
		baseRows:  base.NumRows(),
		numStrata: int64(n),
	}
	k1 := caps[len(caps)-1]

	builders := make([]*storage.Builder, len(caps))
	for i := range caps {
		t := storage.NewTable(fmt.Sprintf("%s@K%d", phi.Key(), caps[i]), base.Schema)
		builders[i] = storage.NewBuilder(t, cfg.RowsPerBlock, cfg.Nodes, cfg.Place)
		// Strata are emitted in sorted φ-key order, so the stratification
		// columns arrive in runs up to the cap length — prime RLE targets.
		builders[i].HintSortedColumns(idx...)
		fam.Deltas = append(fam.Deltas, t)
	}
	// Pass 2: per stratum, shuffle once; nested prefixes give every
	// resolution. Emit rows level by level so deltas are non-overlapping,
	// each level's rows gathered from the base chunks in one call, column
	// at a time as payloads.
	for _, id := range order {
		w := locs[at[id]:at[id+1]]
		f := int64(len(w))
		if f < k1 {
			fam.tailCount++
		}
		rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
		prev := int64(0)
		for li, cap := range caps {
			take := min(f, cap) // caps ascend, so take never falls below prev
			builders[li].AppendGather(chunks, w[prev:take], storage.RowMeta{Rate: 1, StratumFreq: f})
			prev = take
		}
	}
	for i := range builders {
		builders[i].Finish()
	}
	fam.index()
	return fam, nil
}

// BuildUniform builds a uniform multi-resolution family with the given
// target row counts (ascending).
func BuildUniform(base *storage.Table, sizes []int64, cfg BuildConfig) (*Family, error) {
	return Build(base, types.NewColumnSet(), sizes, cfg)
}

// Validate checks the family's structural invariants: every delta passes
// storage validation, the rows of one stratum all carry one StratumFreq F,
// and at each resolution (deltas 0..level) a stratum holds exactly
// min(F, K_level) rows — one that lost rows fails. Strata are numbered by
// one colstore.Strata across the deltas; a key is rendered only for an
// error.
func (f *Family) Validate() error {
	for li, d := range f.Deltas {
		if err := storage.Validate(d, 0); err != nil {
			return fmt.Errorf("delta %d: %w", li, err)
		}
	}
	var idx []int
	for _, col := range f.Phi.Columns() {
		i := f.schema.Index(col)
		if i < 0 {
			return fmt.Errorf("family column %q missing from schema", col)
		}
		idx = append(idx, i)
	}
	strata := colstore.NewStrata(idx)
	var ids []uint32 // every row's stratum id, delta after delta
	var freq []int64 // per id: the StratumFreq its rows carry
	for _, d := range f.Deltas {
		for _, b := range d.Blocks {
			from := len(ids)
			ids = strata.IDs(b.Chunk, b.Off, b.Off+b.N, ids)
			for j, id := range ids[from:] {
				m := b.MetaAt(j).StratumFreq
				if int(id) == len(freq) { // ids are numbered densely as met
					freq = append(freq, m)
				} else if freq[id] != m {
					return fmt.Errorf("stratum %q: inconsistent freq %d vs %d", strata.Key(id), freq[id], m)
				}
			}
		}
	}
	seen := make([]int64, len(freq)) // per id: rows in deltas 0..li
	for li, d := range f.Deltas {
		for _, id := range ids[:d.NumRows()] {
			seen[id]++
		}
		ids = ids[d.NumRows():]
		for id, n := range seen {
			if want := min(freq[id], f.Caps[li]); n != want {
				return fmt.Errorf("level %d stratum %q: %d rows, want min(F=%d, K=%d)", li, strata.Key(uint32(id)), n, freq[id], f.Caps[li])
			}
		}
	}
	return nil
}
