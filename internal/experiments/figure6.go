package experiments

import (
	"context"
	"fmt"

	"blinkdb/internal/baseline"
	"blinkdb/internal/cluster"
	"blinkdb/internal/exec"
	"blinkdb/internal/optimizer"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
)

// Figure6a reproduces Fig. 6(a): the stratified sample families the
// optimizer selects on the Conviva workload for storage budgets of 50%,
// 100% and 200% of the table, with their cumulative storage costs.
func Figure6a(cfg Config) (*Table, error) {
	return figure6SampleFamilies(cfg, "conviva",
		"Figure 6(a): sample families selected per storage budget (Conviva)")
}

// Figure6b is Fig. 6(b): the same sweep on the TPC-H workload.
func Figure6b(cfg Config) (*Table, error) {
	return figure6SampleFamilies(cfg, "tpch",
		"Figure 6(b): sample families selected per storage budget (TPC-H)")
}

func figure6SampleFamilies(cfg Config, which, title string) (*Table, error) {
	cfg = cfg.normalize()
	env, err := NewEnv(cfg, which, 1e12)
	if err != nil {
		return nil, err
	}
	tab := &Table{
		Title:  title,
		Header: []string{"budget", "family", "size % of table"},
	}
	k, ratio, res, minCap := sampleLadder(int(env.Data.Table.NumRows()))
	for _, budget := range []float64{0.5, 1.0, 2.0} {
		c := optimizer.Config{
			K: k, CapRatio: ratio, Resolutions: res, MinCap: minCap,
			BudgetBytes: int64(float64(env.Data.Table.Bytes()) * budget),
			ChurnFrac:   -1,
			Build: sample.BuildConfig{
				RowsPerBlock: 256, Nodes: cfg.Nodes, Place: storage.InMemory, Seed: cfg.Seed,
			},
		}
		plan, err := optimizer.ChooseSamples(env.Data.Table, env.Data.OptimizerTemplates(), c)
		if err != nil {
			return nil, err
		}
		total := 0.0
		label := fmt.Sprintf("%d%%", int(budget*100))
		for _, ch := range plan.Chosen {
			pct := 100 * float64(ch.StorageBytes) / float64(env.Data.Table.Bytes())
			total += pct
			tab.Rows = append(tab.Rows, []string{label, ch.Phi.String(), fmt.Sprintf("%.1f", pct)})
			label = ""
		}
		tab.Rows = append(tab.Rows, []string{"", "TOTAL", fmt.Sprintf("%.1f", total)})
	}
	tab.Notes = append(tab.Notes,
		"paper picks e.g. [dt jointimems], [objectid jointimems] (Conviva) and [orderkey suppkey], [commitdt receiptdt] (TPC-H); exact sets depend on the synthetic skews but must grow with budget and favor skewed column sets")
	return tab, nil
}

// Figure6c reproduces Fig. 6(c): the response time of a simple filtered
// AVG + GROUP BY query on 2.5 TB and 7.5 TB of Conviva data under Hive on
// Hadoop, Shark without and with caching, and BlinkDB (bounded error).
func Figure6c(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	tab := &Table{
		Title:  "Figure 6(c): BlinkDB vs full-scan engines, log-scale response time (s)",
		Header: []string{"engine", "2.5 TB (s)", "7.5 TB (s)"},
	}

	// Full-scan engines: latency comes from the cluster model at the
	// logical data size; answers are exact by construction.
	clus := cluster.New(cluster.PaperConfig().WithNodes(cfg.Nodes))
	engines := []struct {
		prof cluster.EngineProfile
		mem  float64
	}{
		{cluster.HiveOnHadoop, 0},
		{cluster.SharkNoCache, 0},
		{cluster.SharkCached, 1},
	}
	sizes := []float64{2.5e12, 7.5e12}
	rows := map[string][]string{}
	order := []string{}
	for _, e := range engines {
		cells := []string{e.prof.Name}
		for _, sz := range sizes {
			w := clus.UniformWork(sz, e.mem, sz*0.01, 256e6)
			cells = append(cells, fmt.Sprintf("%.0f", clus.Latency(e.prof, w)))
		}
		rows[e.prof.Name] = cells
		order = append(order, e.prof.Name)
	}

	// BlinkDB: build the Conviva environment once per logical size and run
	// the paper's query with an error bound through the full ELP path.
	for i, sz := range sizes {
		env, err := NewEnv(cfg, "conviva", sz)
		if err != nil {
			return nil, err
		}
		rt := env.Runtime(MultiDim)
		// T4 is the heaviest template class (31.7% of the trace); its
		// column set [country endedflag] is a Fig. 6(a) family, so the
		// clustered sample answers it by reading one stratum.
		q, err := sqlparser.Parse(
			`SELECT AVG(sessiontimems) FROM sessions WHERE country = 'country02' AND endedflag = 0 ERROR WITHIN 20% AT CONFIDENCE 95%`)
		if err != nil {
			return nil, err
		}
		key, params := sqlparser.Normalize(q)
		resp, err := rt.Run(context.Background(), q, key, params, nil, nil)
		if err != nil {
			return nil, err
		}
		if _, ok := rows["BlinkDB"]; !ok {
			rows["BlinkDB"] = []string{"BlinkDB (20% error)"}
			order = append(order, "BlinkDB")
		}
		rows["BlinkDB"] = append(rows["BlinkDB"], fmt.Sprintf("%.1f", resp.SimLatency))
		_ = i
	}
	for _, name := range order {
		tab.Rows = append(tab.Rows, rows[name])
	}
	tab.Notes = append(tab.Notes,
		"paper: Hive ~thousands of s, Shark cached ~112 s at 2.5 TB (spills at 7.5 TB), BlinkDB ~2 s",
		"the paper's query is 1% error per GROUP BY city key; at laptop-scale physical row counts (10^4x fewer rows than 5.5B) such bounds are unreachable, so the heaviest template (T4) with a 20% bound exercises the same path — the latency shape (orders-of-magnitude gap, cache spill at 7.5 TB) is the reproduced result")
	return tab, nil
}

// olaComparison is the §1 claim that BlinkDB's precomputed samples beat
// query-time (online) sampling by ~2×. Exposed as an extra experiment.
func olaComparison(cfg Config, target float64) (blink float64, ola float64, err error) {
	env, err := NewEnv(cfg, "conviva", 2.5e12)
	if err != nil {
		return 0, 0, err
	}
	sql := `SELECT AVG(sessiontimems) FROM sessions`
	q, err := sqlparser.Parse(sql + fmt.Sprintf(" ERROR WITHIN %d%% AT CONFIDENCE 95%%", int(target*100)))
	if err != nil {
		return 0, 0, err
	}
	key, params := sqlparser.Normalize(q)
	resp, err := env.Runtime(MultiDim).Run(context.Background(), q, key, params, nil, nil)
	if err != nil {
		return 0, 0, err
	}
	plan, err := exec.Compile(q, env.Data.Table.Schema)
	if err != nil {
		return 0, 0, err
	}
	olaRes := baseline.OLA(env.Clus, env.Data.Table, plan, baseline.OLAConfig{
		TargetRelErr: target, Seed: cfg.Seed, Scale: env.Scale,
		Profile: cluster.SharkCached, MemFraction: 1,
	})
	return resp.SimLatency, olaRes.Latency, nil
}

// OnlineVsOffline renders the BlinkDB-vs-OLA comparison as a table.
func OnlineVsOffline(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	tab := &Table{
		Title:  "BlinkDB (offline samples) vs online aggregation, time to target error",
		Header: []string{"target error", "BlinkDB (s)", "OLA (s)", "speedup"},
	}
	for _, target := range []float64{0.10, 0.20} {
		b, o, err := olaComparison(cfg, target)
		if err != nil {
			return nil, err
		}
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%.0f%%", target*100),
			fmt.Sprintf("%.1f", b),
			fmt.Sprintf("%.1f", o),
			fmt.Sprintf("%.1fx", o/b),
		})
	}
	tab.Notes = append(tab.Notes,
		"paper §1: precomputed samples are ~2x faster than online sampling at query time; this run gives OLA the benefit of fully cached inputs (no random-I/O penalty in memory)")
	return tab, nil
}
