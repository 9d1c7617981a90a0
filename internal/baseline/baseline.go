// Package baseline implements online aggregation (OLA), the comparison
// system of §1's 2× claim and §7's related work: streaming the data in
// random order and stopping once the error target is met. OLA pays the
// random-I/O penalty the paper argues makes it impractical on distributed
// stores. The evaluation's other baselines need no code of their own: the
// experiments price Fig. 6(c)'s Hive and Shark full scans with the cluster
// model directly, and build §6.3's uniform-only and single-column catalogs
// with the sample and optimizer packages.
package baseline

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"blinkdb/internal/cluster"
	"blinkdb/internal/exec"
	"blinkdb/internal/stats"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// OLAResult reports an online-aggregation run.
type OLAResult struct {
	// Result holds the estimates at stop time.
	Result *exec.Result
	// RowsConsumed is how many rows were streamed before stopping.
	RowsConsumed int64
	// Fraction is RowsConsumed / table rows.
	Fraction float64
	// Latency is the simulated seconds (random-order I/O).
	Latency float64
	// Converged is true when the error target was met before exhausting
	// the table.
	Converged bool
}

// OLAConfig controls an online-aggregation run.
type OLAConfig struct {
	// TargetRelErr stops the stream once every group's relative error at
	// Confidence drops below it (0 disables, streaming the whole table).
	TargetRelErr float64
	// TimeBudget stops when simulated latency exceeds it (0 = none).
	TimeBudget float64
	// Confidence for the error estimates (default 0.95).
	Confidence float64
	// BatchRows between error checks (default 1024).
	BatchRows int
	// MinGroups requires at least this many groups before convergence
	// can be declared (guards against declaring victory before rare
	// groups have appeared). Default 1.
	MinGroups int
	// Seed shuffles the stream order.
	Seed int64
	// Profile prices the scan (default SharkNoCache, disk-resident).
	Profile cluster.EngineProfile
	// Scale maps physical to logical bytes.
	Scale float64
	// MemFraction of the data that is cache-resident.
	MemFraction float64
}

func (c OLAConfig) normalize() OLAConfig {
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = 0.95
	}
	if c.BatchRows <= 0 {
		c.BatchRows = 1024
	}
	if c.MinGroups <= 0 {
		c.MinGroups = 1
	}
	if c.Profile.Name == "" {
		c.Profile = cluster.SharkNoCache
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// OLA simulates online aggregation: rows are streamed in a random
// permutation (the random order OLA's statistical guarantees require);
// after each batch the current estimates and error bars are recomputed;
// the stream stops when the target error is reached or the time budget is
// exhausted. Latency is priced at the random-I/O rate.
func OLA(clus *cluster.Cluster, tab *storage.Table, plan *exec.Plan, cfg OLAConfig) *OLAResult {
	cfg = cfg.normalize()

	// Materialise a shuffled index of all rows. OLA cannot exploit
	// clustering — that is exactly its cost.
	type loc struct{ b, r int32 }
	locs := make([]loc, 0, tab.NumRows())
	for bi, b := range tab.Blocks {
		for ri, n := 0, b.NumRows(); ri < n; ri++ {
			locs = append(locs, loc{int32(bi), int32(ri)})
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(locs), func(i, j int) { locs[i], locs[j] = locs[j], locs[i] })

	total := float64(len(locs))
	bytesPerRow := 1.0
	if total > 0 {
		bytesPerRow = float64(tab.Bytes()) / total
	}
	fullWork := clus.UniformWork(float64(tab.Bytes())*cfg.Scale, cfg.MemFraction,
		float64(tab.Bytes())*cfg.Scale*0.01, 256e6)
	fullWork.RandomOrder = true
	fullLatency := clus.Latency(cfg.Profile, fullWork)

	type gState struct {
		key  []types.Value
		accs []*olaAcc
	}
	groups := map[string]*gState{}
	consumed := int64(0)

	latencyAt := func(rows int64) float64 {
		frac := float64(rows) / math.Max(total, 1)
		// Startup overhead is paid once; scan time scales with fraction.
		return cfg.Profile.JobOverheadSec + (fullLatency-cfg.Profile.JobOverheadSec)*frac
	}

	buildResult := func() *exec.Result {
		res := &exec.Result{RowsScanned: consumed, Confidence: cfg.Confidence}
		frac := float64(consumed) / math.Max(total, 1)
		for _, gs := range groups {
			g := exec.Group{Key: gs.key, Estimates: make([]stats.Estimate, len(gs.accs))}
			for i, a := range gs.accs {
				g.Estimates[i] = a.estimate(frac, cfg.Confidence)
			}
			res.Groups = append(res.Groups, g)
			res.RowsMatched += gs.accs[0].n
		}
		// Sort by encoded key (computed once per group) so output order
		// never depends on map iteration. Note this is a deterministic
		// lexicographic order, not exec.finalize's value order —
		// baseline results are compared by key, never positionally.
		enc := make([]string, len(res.Groups))
		for i, g := range res.Groups {
			enc[i] = encodeGroupKey(g.Key)
		}
		sort.Sort(&groupsByKey{groups: res.Groups, keys: enc})
		res.BytesScanned = int64(float64(consumed) * bytesPerRow)
		return res
	}

	converged := false
	for start := 0; start < len(locs); start += cfg.BatchRows {
		end := start + cfg.BatchRows
		if end > len(locs) {
			end = len(locs)
		}
		for _, l := range locs[start:end] {
			consumed++
			row := tab.Blocks[l.b].RowAt(int(l.r))
			if !plan.Pred.Eval(row) {
				continue
			}
			key := ""
			if len(plan.GroupBy) > 0 {
				key = types.RowKey(row, plan.GroupBy)
			}
			gs, ok := groups[key]
			if !ok {
				gs = &gState{accs: make([]*olaAcc, len(plan.Aggs))}
				for ai, a := range plan.Aggs {
					gs.accs[ai] = newOLAAcc(a.Kind, a.P)
				}
				if len(plan.GroupBy) > 0 {
					gs.key = make([]types.Value, len(plan.GroupBy))
					for ki, ci := range plan.GroupBy {
						gs.key[ki] = row[ci]
					}
				}
				groups[key] = gs
			}
			// The rows seen so far are a uniform prefix sample; raw sums
			// are kept and the current fraction is applied at estimate
			// time (see olaAcc).
			for ai, a := range plan.Aggs {
				x := 1.0
				if a.Col >= 0 {
					v := row[a.Col]
					if v.IsNull() {
						continue
					}
					x = v.AsFloat()
					if a.Kind == stats.AggCount {
						x = 1
					}
				}
				gs.accs[ai].add(x)
			}
		}

		if cfg.TimeBudget > 0 && latencyAt(consumed) >= cfg.TimeBudget {
			break
		}
		if cfg.TargetRelErr > 0 && len(groups) >= cfg.MinGroups {
			worst := 0.0
			frac := float64(consumed) / math.Max(total, 1)
			for _, gs := range groups {
				for _, a := range gs.accs {
					e := a.estimate(frac, cfg.Confidence)
					if re := e.RelErr(); re > worst {
						worst = re
					}
				}
			}
			if worst > 0 && worst <= cfg.TargetRelErr {
				converged = true
				break
			}
		}
	}

	return &OLAResult{
		Result:       buildResult(),
		RowsConsumed: consumed,
		Fraction:     float64(consumed) / math.Max(total, 1),
		Latency:      latencyAt(consumed),
		Converged:    converged,
	}
}

func encodeGroupKey(key []types.Value) string {
	var b strings.Builder
	for _, v := range key {
		b.WriteString(v.Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// groupsByKey sorts groups and their precomputed encoded keys together.
type groupsByKey struct {
	groups []exec.Group
	keys   []string
}

func (s *groupsByKey) Len() int           { return len(s.groups) }
func (s *groupsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *groupsByKey) Swap(i, j int) {
	s.groups[i], s.groups[j] = s.groups[j], s.groups[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
