// Package maintenance implements BlinkDB's sample upkeep:
//
//   - drift detection (§2.2.1 "Sample Maintenance", §3.2.3): snapshots of
//     per-column frequency histograms and template weights are compared
//     over time; significant divergence triggers a re-solve;
//   - churn-constrained re-optimization (§3.2.3, constraint (5)): the
//     optimizer is re-run with the currently-built families as δⱼ inputs
//     and the administrator's churn fraction r, yielding a build/drop diff;
//   - background refresh (§4.5): periodically re-drawing each family with
//     a fresh seed so unrepresentative samples get replaced. Refresh is
//     incremental — one family per call, round-robin — mirroring the
//     paper's low-priority background task.
package maintenance

import (
	"fmt"
	"math"
	"sort"

	"blinkdb/internal/catalog"
	"blinkdb/internal/colstore"
	"blinkdb/internal/optimizer"
	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// Snapshot captures the statistics drift detection compares.
type Snapshot struct {
	// Rows is the table size at snapshot time.
	Rows int64
	// ColumnHists maps column name → (value key → frequency), truncated
	// to the TopK most frequent values.
	ColumnHists map[string]map[string]int64
	// TemplateWeights maps template column-set key → weight.
	TemplateWeights map[string]float64
}

// TopK bounds the per-column histogram size in snapshots.
const TopK = 256

// TakeSnapshot measures the table's frequency histograms on the given
// columns plus the workload's template weights.
func TakeSnapshot(tab *storage.Table, columns []string, templates []optimizer.TemplateSpec) (*Snapshot, error) {
	s := &Snapshot{
		Rows:            tab.NumRows(),
		ColumnHists:     map[string]map[string]int64{},
		TemplateWeights: map[string]float64{},
	}
	var idxs []int
	for _, c := range columns {
		i, err := tab.Schema.MustIndex(c)
		if err != nil {
			return nil, fmt.Errorf("maintenance: %w", err)
		}
		idxs = append(idxs, i)
		s.ColumnHists[c] = map[string]int64{}
	}
	// Per-column histograms count value ids off the chunks' typed columns
	// (blocks tile their chunks) and render each id's key once.
	for k, i := range idxs {
		strata := colstore.NewStrata([]int{i})
		var counts []int64
		for _, d := range tab.Chunks() {
			counts = strata.Count(d, 0, d.N, counts)
		}
		h := s.ColumnHists[columns[k]]
		for id, n := range counts {
			h[strata.Key(uint32(id))] += n
		}
	}
	for c := range s.ColumnHists {
		s.ColumnHists[c] = truncateHist(s.ColumnHists[c], TopK)
	}
	for _, t := range templates {
		s.TemplateWeights[t.Columns.Key()] += t.Weight
	}
	return s, nil
}

func truncateHist(h map[string]int64, k int) map[string]int64 {
	if len(h) <= k {
		return h
	}
	type kv struct {
		key string
		n   int64
	}
	all := make([]kv, 0, len(h))
	for key, n := range h {
		all = append(all, kv{key, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].key < all[j].key
	})
	out := make(map[string]int64, k)
	for _, e := range all[:k] {
		out[e.key] = e.n
	}
	return out
}

// DataDrift returns the worst per-column total-variation distance between
// the normalized frequency histograms of two snapshots, in [0, 1].
func DataDrift(old, cur *Snapshot) float64 {
	worst := 0.0
	for col, oldH := range old.ColumnHists {
		curH, ok := cur.ColumnHists[col]
		if !ok {
			worst = 1
			continue
		}
		if d := tvDistance(oldH, curH); d > worst {
			worst = d
		}
	}
	return worst
}

// WorkloadDrift returns the total-variation distance between template
// weight distributions.
func WorkloadDrift(old, cur *Snapshot) float64 {
	return tvDistanceF(old.TemplateWeights, cur.TemplateWeights)
}

func tvDistance(a, b map[string]int64) float64 {
	af := make(map[string]float64, len(a))
	bf := make(map[string]float64, len(b))
	var at, bt float64
	for k, v := range a {
		af[k] = float64(v)
		at += float64(v)
	}
	for k, v := range b {
		bf[k] = float64(v)
		bt += float64(v)
	}
	if at > 0 {
		for k := range af {
			af[k] /= at
		}
	}
	if bt > 0 {
		for k := range bf {
			bf[k] /= bt
		}
	}
	return tvDistanceF(af, bf)
}

func tvDistanceF(a, b map[string]float64) float64 {
	var at, bt float64
	for _, v := range a {
		at += v
	}
	for _, v := range b {
		bt += v
	}
	d := 0.0
	seen := map[string]bool{}
	for k, v := range a {
		va := v
		if at > 0 {
			va /= at
		}
		vb := 0.0
		if w, ok := b[k]; ok {
			vb = w
			if bt > 0 {
				vb /= bt
			}
		}
		d += math.Abs(va - vb)
		seen[k] = true
	}
	for k, v := range b {
		if seen[k] {
			continue
		}
		vb := v
		if bt > 0 {
			vb /= bt
		}
		d += vb
	}
	return d / 2
}

// Diff is the outcome of a churn-constrained re-solve.
type Diff struct {
	// Build lists column sets to construct.
	Build []types.ColumnSet
	// Drop lists column sets to remove.
	Drop []types.ColumnSet
	// Keep lists column sets left untouched.
	Keep []types.ColumnSet
	// Plan is the underlying optimizer output.
	Plan *optimizer.Plan
}

// The drift thresholds of NeedsResolve: a total-variation distance above
// either triggers a re-solve.
const (
	dataDriftThreshold     = 0.1
	workloadDriftThreshold = 0.1
)

// Seeds a Maintainer derives from its recipe's Build.Seed: a re-solve
// builds with seed+resolveSeedOffset, and the k-th refresh (k from 1) with
// seed+refreshSeedOffset+k·refreshSeedStep, so each refresh draws with a
// seed no build of the table used before.
const (
	resolveSeedOffset = 31
	refreshSeedOffset = 7717
	refreshSeedStep   = 7919
)

// Maintainer keeps one table's samples current: it re-solves the
// sample-selection problem and applies the resulting diff (§3.2.3), and it
// re-draws families one at a time (§4.5). Everything it builds follows
// one recipe, the optimizer configuration the table's samples were first
// chosen and built under. A Maintainer is not safe for concurrent use.
type Maintainer struct {
	cat   *catalog.Catalog
	table string
	cfg   optimizer.Config

	last     *Snapshot
	refreshK int64 // refreshes so far
}

// NewMaintainer creates a maintainer whose builds follow cfg: its caps,
// budget, candidate width and physical layout, with seeds derived from
// cfg.Build.Seed.
func NewMaintainer(cat *catalog.Catalog, table string, cfg optimizer.Config) *Maintainer {
	return &Maintainer{cat: cat, table: table, cfg: cfg}
}

// Observe records a snapshot baseline.
func (m *Maintainer) Observe(s *Snapshot) { m.last = s }

// Last returns the baseline Observe recorded last, or nil.
func (m *Maintainer) Last() *Snapshot { return m.last }

// NeedsResolve reports whether the current statistics have drifted enough
// from the last observed snapshot to warrant re-solving.
func (m *Maintainer) NeedsResolve(cur *Snapshot) bool {
	if m.last == nil {
		return true
	}
	return DataDrift(m.last, cur) > dataDriftThreshold ||
		WorkloadDrift(m.last, cur) > workloadDriftThreshold
}

// Resolve re-runs the optimizer with the currently-built families as the
// δⱼ inputs and churn as the r of constraint (5) (negative: unconstrained;
// a table with no stratified family is unconstrained whatever its value,
// as §3.2.3 requires of a first solve), and returns the build/drop diff.
// It does not modify the catalog; call Apply.
func (m *Maintainer) Resolve(templates []optimizer.TemplateSpec, churn float64) (*Diff, error) {
	entry, err := m.cat.Lookup(m.table)
	if err != nil {
		return nil, err
	}
	cfg := m.cfg
	cfg.ChurnFrac = churn
	cfg.Existing = nil
	existing := map[string]bool{}
	for _, f := range entry.Stratified() {
		cfg.Existing = append(cfg.Existing, f.Phi)
		existing[f.Phi.Key()] = true
	}
	plan, err := optimizer.ChooseSamples(entry.Table, templates, cfg)
	if err != nil {
		return nil, err
	}
	diff := &Diff{Plan: plan}
	chosen := map[string]bool{}
	for _, c := range plan.Chosen {
		chosen[c.Phi.Key()] = true
		if existing[c.Phi.Key()] {
			diff.Keep = append(diff.Keep, c.Phi)
		} else {
			diff.Build = append(diff.Build, c.Phi)
		}
	}
	for _, f := range entry.Stratified() {
		if !chosen[f.Phi.Key()] {
			diff.Drop = append(diff.Drop, f.Phi)
		}
	}
	return diff, nil
}

// Apply executes a diff: builds new families and drops removed ones.
func (m *Maintainer) Apply(diff *Diff) error {
	entry, err := m.cat.Lookup(m.table)
	if err != nil {
		return err
	}
	caps := m.cfg.Caps()
	build := m.cfg.Build
	build.Seed += resolveSeedOffset
	for _, phi := range diff.Build {
		f, err := sample.Build(entry.Table, phi, caps, build)
		if err != nil {
			return err
		}
		if err := m.cat.AddFamily(m.table, f); err != nil {
			return err
		}
	}
	for _, phi := range diff.Drop {
		if err := m.cat.DropFamily(m.table, phi); err != nil {
			return err
		}
	}
	return nil
}

// Refresh re-draws one family with fresh randomness and swaps it into the
// catalog — the §4.5 low-priority background replacement, one family per
// call. The k-th call re-draws family (k−1) mod n of the n the catalog
// holds then, in catalog order, at its own caps. Returns the refreshed
// column set, or false when the table has no families.
func (m *Maintainer) Refresh() (types.ColumnSet, bool, error) {
	entry, err := m.cat.Lookup(m.table)
	if err != nil {
		return types.ColumnSet{}, false, err
	}
	if len(entry.Families) == 0 {
		return types.ColumnSet{}, false, nil
	}
	old := entry.Families[m.refreshK%int64(len(entry.Families))]
	m.refreshK++
	build := m.cfg.Build
	build.Seed += refreshSeedOffset + m.refreshK*refreshSeedStep
	fresh, err := sample.Build(entry.Table, old.Phi, old.Caps, build)
	if err != nil {
		return types.ColumnSet{}, false, err
	}
	if err := m.cat.AddFamily(m.table, fresh); err != nil {
		return types.ColumnSet{}, false, err
	}
	return old.Phi, true, nil
}
