// Package optimizer implements BlinkDB's sample-creation optimization
// framework (§3.2): given the base table, a workload of query templates
// with weights, and a storage budget, it decides which column sets to
// build stratified sample families on.
//
// The pipeline is:
//  1. candidate generation — subsets of template column sets, limited to
//     MaxColumns members (§3.2.2's combinatorial-explosion guard);
//  2. per-candidate statistics — |D(φ)|, the non-uniformity Δ(φ) and the
//     storage cost Store(φ) measured from the actual data;
//  3. the MILP of §3.2.1, solved by internal/milp;
//  4. physical construction of the chosen families plus the always-present
//     uniform family.
package optimizer

import (
	"fmt"
	"math"
	"sort"

	"blinkdb/internal/colstore"
	"blinkdb/internal/milp"
	"blinkdb/internal/sample"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// TemplateSpec is one workload query template ⟨φᵀ, w⟩ (§3.2.1).
type TemplateSpec struct {
	// Columns is the union of WHERE and GROUP BY columns.
	Columns types.ColumnSet
	// Weight is the normalized frequency/importance, in (0, 1].
	Weight float64
}

// SkewMetric maps a stratum-frequency histogram to the non-uniformity
// Δ(φ). freqs holds F(φ,T,v) for every distinct v; k is the largest cap.
type SkewMetric func(freqs []int64, k int64) float64

// TailCount is the paper's default Δ: the number of distinct values whose
// frequency is below the cap K (§3.2.1).
func TailCount(freqs []int64, k int64) float64 {
	n := 0
	for _, f := range freqs {
		if f < k {
			n++
		}
	}
	return float64(n)
}

// Kurtosis is the alternative metric the paper mentions (excess kurtosis
// of the frequency distribution, shifted to be ≥ 0). Exposed for the
// DESIGN.md ablation of the skew-metric choice.
func Kurtosis(freqs []int64, _ int64) float64 {
	n := float64(len(freqs))
	if n < 2 {
		return 0
	}
	var mean float64
	for _, f := range freqs {
		mean += float64(f)
	}
	mean /= n
	var m2, m4 float64
	for _, f := range freqs {
		d := float64(f) - mean
		m2 += d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	k := m4/(m2*m2) - 3
	if k < 0 {
		return 0
	}
	return k
}

// Config controls the optimization.
type Config struct {
	// K is the largest frequency cap K1 (the paper uses 100,000).
	K int64
	// CapRatio is c, the geometric step between resolutions (default 2).
	CapRatio float64
	// Resolutions is the number of samples per family (default 3).
	Resolutions int
	// MinCap drops resolutions whose cap would fall below this.
	MinCap int64
	// MaxColumns limits candidate subsets (§3.2.2; the evaluation uses 3).
	MaxColumns int
	// BudgetBytes is the storage budget S.
	BudgetBytes int64
	// ChurnFrac is r for constraint (5); negative disables.
	ChurnFrac float64
	// Workers sizes the worker pool used for per-candidate statistics
	// collection and physical family construction, which are independent
	// units of work (the executor's pool pattern applied to the offline
	// pipeline). ≤1 (default) is sequential; results are identical for
	// any value, since each unit is internally deterministic and output
	// slots are indexed.
	Workers int
	// Existing lists column sets already built (δⱼ inputs).
	Existing []types.ColumnSet
	// Skew is the non-uniformity metric (default TailCount).
	Skew SkewMetric
	// Build is the physical layout config for constructed families.
	Build sample.BuildConfig
}

func (c Config) normalize() Config {
	if c.K <= 0 {
		c.K = 100000
	}
	if c.CapRatio <= 1 {
		c.CapRatio = 2
	}
	if c.Resolutions <= 0 {
		c.Resolutions = 3
	}
	if c.MinCap <= 0 {
		c.MinCap = 10
	}
	if c.MaxColumns <= 0 {
		c.MaxColumns = 3
	}
	if c.Skew == nil {
		c.Skew = TailCount
	}
	return c
}

// Caps is the frequency-cap ladder of every stratified family built under
// c: K, K/CapRatio, … over Resolutions levels, none below MinCap, each
// field at its default when unset.
func (c Config) Caps() []int64 {
	c = c.normalize()
	return sample.GeometricCaps(c.K, c.CapRatio, c.Resolutions, c.MinCap)
}

// Candidate is a column set considered for a sample family, with its
// measured statistics.
type Candidate struct {
	// Phi is the column set.
	Phi types.ColumnSet
	// Distinct is |D(φ)|.
	Distinct int64
	// Delta is Δ(φ) under the configured skew metric.
	Delta float64
	// StorageBytes is Store(φ): the physical size of the family (its
	// largest sample; smaller resolutions share the blocks).
	StorageBytes int64
	// StorageRows is the row count of the largest sample.
	StorageRows int64
	// Exists marks candidates already built (δⱼ).
	Exists bool
}

// Plan is the optimization output.
type Plan struct {
	// Chosen lists the selected candidates in descending storage order.
	Chosen []Candidate
	// Candidates lists everything considered (for reporting).
	Candidates []Candidate
	// Objective is the achieved MILP goal value G.
	Objective float64
	// TotalBytes is the storage consumed by the chosen families.
	TotalBytes int64
	// Optimal is true when the exact solver ran.
	Optimal bool
}

// ChooseSamples runs candidate generation, statistics collection and the
// MILP, returning the selected column sets. It does not build families;
// see BuildFamilies.
func ChooseSamples(tab *storage.Table, templates []TemplateSpec, cfg Config) (*Plan, error) {
	prob, cands, err := BuildMILP(tab, templates, cfg)
	if err != nil {
		return nil, err
	}
	sol, err := milp.Solve(prob)
	if err != nil {
		return nil, err
	}
	return planFromSolution(prob, cands, sol), nil
}

// BuildMILP performs candidate generation and statistics collection,
// returning the §3.2.1 optimization instance and the candidate metadata
// (aligned with the problem's Store vector). Exposed so callers can
// compare solver strategies on identical instances.
func BuildMILP(tab *storage.Table, templates []TemplateSpec, cfg Config) (*milp.Problem, []Candidate, error) {
	cfg = cfg.normalize()
	if len(templates) == 0 {
		return nil, nil, fmt.Errorf("optimizer: no query templates")
	}

	// 1. Candidate generation: all subsets (≤ MaxColumns) of template
	// column sets (§3.2.2's restriction preserves optimality).
	seen := map[string]types.ColumnSet{}
	for _, t := range templates {
		if t.Columns.Empty() {
			continue
		}
		for _, sub := range t.Columns.Subsets(cfg.MaxColumns) {
			seen[sub.Key()] = sub
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return nil, nil, fmt.Errorf("optimizer: templates reference no columns")
	}

	existing := map[string]bool{}
	for _, e := range cfg.Existing {
		existing[e.Key()] = true
	}

	// 2. Statistics per candidate. Each candidate's frequency histogram
	// is an independent scan of the base table, so the collection fans
	// out over the worker pool; output slots are indexed, keeping the
	// assembled problem identical for any worker count.
	avgRow := avgRowBytes(tab)
	cands := make([]Candidate, len(keys))
	candFreqs := make([][]int64, len(keys))
	errs := make([]error, len(keys))
	colstore.ParallelFor(len(keys), cfg.Workers, func(i int) {
		phi := seen[keys[i]]
		freqs, err := frequencies(tab, phi)
		if err != nil {
			errs[i] = err
			return
		}
		candFreqs[i] = freqs
		var storeRows int64
		for _, f := range freqs {
			if f < cfg.K {
				storeRows += f
			} else {
				storeRows += cfg.K
			}
		}
		cands[i] = Candidate{
			Phi:          phi,
			Distinct:     int64(len(freqs)),
			Delta:        cfg.Skew(freqs, cfg.K),
			StorageRows:  storeRows,
			StorageBytes: int64(float64(storeRows) * avgRow),
			Exists:       existing[keys[i]],
		}
	})
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}
	// Candidate histograms double as a cache for the template pass (a
	// template whose column set is itself a candidate re-scans nothing).
	freqCache := make(map[string][]int64, len(keys))
	for i, key := range keys {
		freqCache[key] = candFreqs[i]
	}

	// 3. Template statistics + MILP assembly.
	prob := &milp.Problem{
		Budget:    float64(cfg.BudgetBytes),
		ChurnFrac: cfg.ChurnFrac,
	}
	for _, c := range cands {
		prob.Store = append(prob.Store, float64(c.StorageBytes))
	}
	if len(cfg.Existing) > 0 {
		prob.Exists = make([]bool, len(cands))
		for j, c := range cands {
			prob.Exists[j] = c.Exists
		}
	}
	tmplFreqs := make([][]int64, len(templates))
	errs = make([]error, len(templates))
	colstore.ParallelFor(len(templates), cfg.Workers, func(i int) {
		if f, ok := freqCache[templates[i].Columns.Key()]; ok {
			tmplFreqs[i] = f // cache is read-only here: safe concurrently
			return
		}
		tmplFreqs[i], errs[i] = frequencies(tab, templates[i].Columns)
	})
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}
	for ti, t := range templates {
		freqs := tmplFreqs[ti]
		mt := milp.Template{
			Weight: t.Weight,
			Delta:  cfg.Skew(freqs, cfg.K),
		}
		dT := float64(len(freqs))
		for j, c := range cands {
			if c.Phi.SubsetOf(t.Columns) && dT > 0 {
				frac := float64(c.Distinct) / dT
				if frac > 1 {
					frac = 1
				}
				mt.Covers = append(mt.Covers, milp.Cover{Cand: j, Frac: frac})
			}
		}
		prob.Templates = append(prob.Templates, mt)
	}

	return prob, cands, nil
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// planFromSolution converts a solver output into a Plan, pruning selected
// candidates with zero marginal contribution: dropping
// them leaves the objective unchanged and frees storage (the §2.3
// narrative — no stratified sample on uniformly distributed columns).
func planFromSolution(prob *milp.Problem, cands []Candidate, sol *milp.Solution) *Plan {
	sel := append([]bool{}, sol.Select...)
	for j := range sel {
		if !sel[j] {
			continue
		}
		if cands[j].Exists {
			continue // keep existing samples: dropping them costs churn
		}
		sel[j] = false
		if prob.Objective(sel) < sol.Objective-1e-12 {
			sel[j] = true
		}
	}

	plan := &Plan{Candidates: cands, Objective: sol.Objective, Optimal: sol.Optimal}
	for j, z := range sel {
		if z {
			plan.Chosen = append(plan.Chosen, cands[j])
			plan.TotalBytes += cands[j].StorageBytes
		}
	}
	sort.Slice(plan.Chosen, func(a, b int) bool {
		return plan.Chosen[a].StorageBytes > plan.Chosen[b].StorageBytes
	})
	return plan
}

// BuildFamilies physically constructs the chosen stratified families plus
// a uniform family sized at uniformFraction of the base table (spread over
// the same resolution count). The uniform family is always present: it
// serves templates with near-uniform distributions (§2.2.1).
//
// Family builds are independent (each reads the immutable base table and
// draws from its own seeded RNG), so they fan out over cfg.Workers; the
// result order — chosen families, then uniform — and every family's
// contents are identical for any worker count.
func BuildFamilies(tab *storage.Table, plan *Plan, cfg Config, uniformFraction float64) ([]*sample.Family, error) {
	cfg = cfg.normalize()
	caps := cfg.Caps()
	total := len(plan.Chosen)
	if uniformFraction > 0 {
		total++
	}
	fams := make([]*sample.Family, total)
	errs := make([]error, total)
	colstore.ParallelFor(total, cfg.Workers, func(i int) {
		if i < len(plan.Chosen) {
			fams[i], errs[i] = sample.Build(tab, plan.Chosen[i].Phi, caps, cfg.Build)
			return
		}
		target := int64(float64(tab.NumRows()) * uniformFraction)
		if target < 1 {
			target = 1
		}
		sizes := sample.GeometricCaps(target, cfg.CapRatio, cfg.Resolutions, 1)
		fams[i], errs[i] = sample.BuildUniform(tab, sizes, cfg.Build)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return fams, nil
}

// frequencies returns the stratum-frequency histogram of φ over the table.
func frequencies(tab *storage.Table, phi types.ColumnSet) ([]int64, error) {
	var idx []int
	for _, col := range phi.Columns() {
		i, err := tab.Schema.MustIndex(col)
		if err != nil {
			return nil, fmt.Errorf("optimizer: %w", err)
		}
		idx = append(idx, i)
	}
	// Rows are counted by stratum id (RowKey equality, numbered off the
	// chunks' typed columns), not by a key string per row. Blocks tile
	// their chunks, so whole chunks count every row once.
	strata := colstore.NewStrata(idx)
	var counts []int64
	for _, d := range tab.Chunks() {
		counts = strata.Count(d, 0, d.N, counts)
	}
	sort.Slice(counts, func(a, b int) bool { return counts[a] > counts[b] })
	return counts, nil
}

func avgRowBytes(tab *storage.Table) float64 {
	if tab.NumRows() == 0 {
		return 1
	}
	return math.Max(1, float64(tab.Bytes())/float64(tab.NumRows()))
}
