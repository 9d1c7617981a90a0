package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"blinkdb/internal/sqlparser"
)

// Figure7a reproduces Fig. 7(a): average statistical error per query
// template when running each query with a fixed 10-second time budget
// over three equally-sized sample sets (multi-column stratified,
// single-column stratified, uniform) on the Conviva workload.
func Figure7a(cfg Config) (*Table, error) {
	return figure7Errors(cfg, "conviva", 2e12,
		"Figure 7(a): per-template statistical error @10s budget (Conviva)")
}

// Figure7b is Fig. 7(b): the same comparison on TPC-H.
func Figure7b(cfg Config) (*Table, error) {
	return figure7Errors(cfg, "tpch", 1e12,
		"Figure 7(b): per-template statistical error @10s budget (TPC-H)")
}

func figure7Errors(cfg Config, which string, bytes float64, title string) (*Table, error) {
	cfg = cfg.normalize()
	env, err := NewEnv(cfg, which, bytes)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title: title,
		Header: []string{"template", "weight",
			string(MultiDim) + " err%", string(SingleDim) + " err%", string(Uniform) + " err%"},
	}
	strategies := []Strategy{MultiDim, SingleDim, Uniform}
	for _, tpl := range env.Data.Templates {
		if tpl.Weight < 0.02 {
			continue // the paper reports the five/six heavy templates
		}
		row := []string{tpl.Name, fmt.Sprintf("%.1f%%", tpl.Weight*100)}
		for _, st := range strategies {
			avg, err := avgErrorForTemplate(env, st, tpl.Name, 10.0)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", avg*100))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append(tab.Notes,
		"error = measured |estimate-truth|/truth vs exact execution, averaged over groups and instances; missing subgroups count as 100% error (subset error, §3.1)",
		"paper: multi-column wins on most templates; single-column occasionally wins on single-column templates; uniform is worst on skewed/rare-value templates",
		"logical size is scaled so the 10s budget admits a comparable FRACTION of the data as the paper's setup; absolute errors are larger than the paper's 1-10% because our physical tables have ~10^4x fewer rows — the ranking across strategies is the reproduced result")
	return tab, nil
}

// avgErrorForTemplate runs Instances random instantiations of a template
// under a time bound on one strategy's catalog and returns the mean
// measured relative error vs ground truth.
func avgErrorForTemplate(env *Env, st Strategy, tplName string, budget float64) (float64, error) {
	tpl := env.Data.Template(tplName)
	if tpl == nil {
		return 0, fmt.Errorf("experiments: unknown template %s", tplName)
	}
	rng := rand.New(rand.NewSource(env.Cfg.Seed + int64(len(tplName))))
	rt := env.Runtime(st)
	suffix := fmt.Sprintf("WITHIN %g SECONDS", budget)
	sum, n := 0.0, 0
	for i := 0; i < env.Cfg.Instances; i++ {
		src := tpl.Gen(rng, suffix)
		q, err := sqlparser.Parse(src)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", src, err)
		}
		key, params := sqlparser.Normalize(q)
		resp, err := rt.Run(context.Background(), q, key, params, nil, nil)
		if err != nil {
			return 0, err
		}
		truth, err := env.GroundTruth(stripBounds(src, suffix))
		if err != nil {
			return 0, err
		}
		if len(truth.Groups) == 0 || truth.Groups[0].Estimates[0].Point == 0 {
			continue // degenerate instantiation (predicate matched nothing)
		}
		sum += MeasuredRelErr(resp.Result, truth)
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

func stripBounds(src, suffix string) string {
	if len(src) >= len(suffix) && src[len(src)-len(suffix):] == suffix {
		return src[:len(src)-len(suffix)]
	}
	return src
}

// Figure7c reproduces Fig. 7(c): the time needed to reach a target
// statistical error for the three strategies, on the Conviva rare-subgroup
// query (average session time for one ISP's customers, grouped by city).
// Smaller targets separate the strategies by orders of magnitude: the
// multi-column stratified family guarantees rows for the rare (asn, city)
// combinations, the uniform sample must grow enormous (here: fall back to
// the base table) to converge.
func Figure7c(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	env, err := NewEnv(cfg, "conviva", 17e12)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title:  "Figure 7(c): time (s) to reach a target error, rare-subgroup query (Conviva)",
		Header: []string{"target err%", string(MultiDim), string(SingleDim), string(Uniform)},
	}
	// The paper's query targets a rare (ISP, city) subgroup. Our analog:
	// failed sessions of a mid-tail country — the (country, endedflag)
	// joint subgroup is rare enough that a uniform sample of the same
	// total size holds almost no rows of it, while the multi-column
	// stratified family on [country endedflag] caps — and therefore
	// GUARANTEES — its rows (§3.1's missing-subgroup argument).
	base := `SELECT AVG(sessiontimems) FROM sessions WHERE country = 'country20' AND endedflag = 0`
	for _, target := range []float64{0.32, 0.16, 0.08, 0.04, 0.02} {
		row := []string{fmt.Sprintf("%.0f", target*100)}
		for _, st := range []Strategy{MultiDim, SingleDim, Uniform} {
			sql := fmt.Sprintf("%s ERROR WITHIN %g%% AT CONFIDENCE 95%%", base, target*100)
			q, err := sqlparser.Parse(sql)
			if err != nil {
				return nil, err
			}
			key, params := sqlparser.Normalize(q)
			resp, err := env.Runtime(st).Run(context.Background(), q, key, params, nil, nil)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", resp.SimLatency))
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append(tab.Notes,
		"a strategy whose samples cannot reach the target falls back to an exact base-table scan — the cliff in its column is the paper's orders-of-magnitude convergence gap",
		"at laptop scale the single-column and uniform cliffs nearly coincide (per-stratum caps leave too few subgroup rows for intermediate targets); in the paper the 1-D curve sits between BlinkDB and random")
	return tab, nil
}
