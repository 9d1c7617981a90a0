// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated cluster:
//
//	Fig. 6(a)/(b)  sample families chosen per storage budget (Conviva, TPC-H)
//	Fig. 6(c)      BlinkDB vs Hive / Shark(±cache) response times
//	Fig. 7(a)/(b)  per-template error: multi-dim vs single-dim vs uniform
//	Fig. 7(c)      error convergence: time to reach an error target
//	Fig. 8(a)      actual vs requested response time
//	Fig. 8(b)      actual vs requested error bound
//	Fig. 8(c)      latency vs cluster size (selective/bulk × cached/disk)
//	Table 5        storage overhead of S(φ,K) under Zipf distributions
//
// Each driver returns a Table that renders as aligned text; cmd/blinkdb-bench
// prints them and bench_test.go wraps them as Go benchmarks. Absolute
// numbers come from the cluster simulator (latency) and real sample
// execution (error); EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"blinkdb/internal/catalog"
	"blinkdb/internal/cluster"
	"blinkdb/internal/elp"
	"blinkdb/internal/exec"
	"blinkdb/internal/optimizer"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/workload"
)

// Config sizes the experiment suite. The zero value gives the full run;
// Quick() gives a fast variant for tests.
type Config struct {
	// ConvivaRows is the synthetic Conviva table size (default 150000).
	ConvivaRows int
	// TPCHRows is the lineitem size (default 80000).
	TPCHRows int
	// Seed drives all randomness.
	Seed int64
	// Instances is the number of query instantiations per template in
	// error experiments (default 8).
	Instances int
	// Nodes in the simulated cluster (default 100).
	Nodes int
	// Workers sizes the executor's scan worker pool for every query the
	// experiments run (default GOMAXPROCS). Results are bit-identical for
	// any value, so experiment outputs don't depend on the host.
	Workers int
}

func (c Config) normalize() Config {
	if c.ConvivaRows <= 0 {
		c.ConvivaRows = 150000
	}
	if c.TPCHRows <= 0 {
		c.TPCHRows = 80000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Instances <= 0 {
		c.Instances = 8
	}
	if c.Nodes <= 0 {
		c.Nodes = 100
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Quick returns a reduced configuration for fast test runs.
func Quick() Config {
	return Config{ConvivaRows: 30000, TPCHRows: 20000, Seed: 42, Instances: 3, Nodes: 100}
}

// Table is a rendered experiment result.
type Table struct {
	// Title names the figure/table being reproduced.
	Title string
	// Header labels the columns.
	Header []string
	// Rows hold the data, pre-formatted.
	Rows [][]string
	// Notes carry caveats (scaling substitutions etc.).
	Notes []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Strategy names the three sampling strategies of §6.3.
type Strategy string

// Strategies compared in Figs. 7(a)–(c).
const (
	MultiDim  Strategy = "multi-column"
	SingleDim Strategy = "single-column"
	Uniform   Strategy = "uniform"
)

// Env is a prepared dataset with catalogs for each sampling strategy and a
// simulated cluster, shared across experiments.
type Env struct {
	Cfg     Config
	Data    *workload.Dataset
	Clus    *cluster.Cluster
	Scale   float64 // logical bytes per physical byte
	K       int64
	Caps    []int64
	Budget  int64 // stratified storage budget (bytes) used for catalogs
	Catalog map[Strategy]*catalog.Catalog
	Plans   map[Strategy]*optimizer.Plan
}

// sampleLadder returns the cap parameters scaled to the dataset size: the
// paper uses K = 100,000 on 5.5B rows (≈ rows/55,000); at laptop scale we
// keep the same resolution structure with K ≈ rows/40.
func sampleLadder(rows int) (k int64, capRatio float64, resolutions int, minCap int64) {
	// K must sit well below head-stratum frequencies for stratification to
	// compress (the paper: K = 1e5 vs head frequencies of 1e8+); rows/200
	// keeps that ratio at laptop scale while leaving enough rows per
	// stratum for ~10% error floors.
	k = int64(rows / 200)
	if k < 64 {
		k = 64
	}
	return k, 2, 8, 2
}

// NewEnv builds the dataset, the 50%-budget catalogs for all three
// strategies, and the cluster. which is "conviva" or "tpch". targetBytes
// sets the pretend logical size (e.g. 17e12 for the 17 TB Conviva set).
func NewEnv(cfg Config, which string, targetBytes float64) (*Env, error) {
	cfg = cfg.normalize()
	build := func(rowsPerBlock int) (*workload.Dataset, error) {
		switch which {
		case "conviva":
			return workload.Conviva(workload.ConvivaConfig{
				Rows: cfg.ConvivaRows, Nodes: cfg.Nodes, Seed: cfg.Seed,
				Place: storage.OnDisk, RowsPerBlock: rowsPerBlock,
			}), nil
		case "tpch":
			return workload.TPCH(workload.TPCHConfig{
				Rows: cfg.TPCHRows, Nodes: cfg.Nodes, Seed: cfg.Seed,
				Place: storage.OnDisk, RowsPerBlock: rowsPerBlock,
			}), nil
		default:
			return nil, fmt.Errorf("experiments: unknown dataset %q", which)
		}
	}
	// First pass measures byte width; the second rebuilds with blocks
	// sized to ≈256 MB logical each.
	data, err := build(512)
	if err != nil {
		return nil, err
	}
	scale := targetBytes / float64(data.Table.Bytes())
	avgRow := float64(data.Table.Bytes()) / float64(data.Table.NumRows())
	blockRows := logicalBlockRows(scale, avgRow)
	data, err = build(blockRows)
	if err != nil {
		return nil, err
	}

	env := &Env{
		Cfg:     cfg,
		Data:    data,
		Clus:    cluster.New(cluster.PaperConfig().WithNodes(cfg.Nodes)),
		Scale:   scale,
		Catalog: map[Strategy]*catalog.Catalog{},
		Plans:   map[Strategy]*optimizer.Plan{},
	}
	k, ratio, res, minCap := sampleLadder(int(data.Table.NumRows()))
	env.K = k
	env.Caps = sample.GeometricCaps(k, ratio, res, minCap)
	env.Budget = data.Table.Bytes() / 2 // the paper's default 50% budget

	bc := sample.BuildConfig{
		RowsPerBlock: blockRows, Nodes: cfg.Nodes, Place: storage.InMemory, Seed: cfg.Seed,
	}
	optCfg := optimizer.Config{
		K: k, CapRatio: ratio, Resolutions: res, MinCap: minCap,
		BudgetBytes: env.Budget, ChurnFrac: -1, Build: bc,
		Workers: cfg.Workers,
	}

	// Multi-column (BlinkDB) and single-column (Babcock-style) catalogs.
	for _, st := range []Strategy{MultiDim, SingleDim} {
		c := optCfg
		if st == SingleDim {
			c.MaxColumns = 1
		}
		plan, err := optimizer.ChooseSamples(data.Table, data.OptimizerTemplates(), c)
		if err != nil {
			return nil, err
		}
		fams, err := optimizer.BuildFamilies(data.Table, plan, c, 0.2)
		if err != nil {
			return nil, err
		}
		cat := catalog.New()
		cat.Register(data.Table)
		for _, f := range fams {
			if err := cat.AddFamily(data.Table.Name, f); err != nil {
				return nil, err
			}
		}
		env.Catalog[st] = cat
		env.Plans[st] = plan
	}

	// Uniform-only catalog of the same total size (50% of the table).
	uni, err := sample.BuildUniform(data.Table,
		sample.GeometricCaps(data.Table.NumRows()/2, ratio, res, minCap), bc)
	if err != nil {
		return nil, err
	}
	cat := catalog.New()
	cat.Register(data.Table)
	if err := cat.AddFamily(data.Table.Name, uni); err != nil {
		return nil, err
	}
	env.Catalog[Uniform] = cat
	return env, nil
}

// Runtime returns an ELP runtime over the strategy's catalog.
func (e *Env) Runtime(st Strategy) *elp.Runtime {
	return elp.New(e.Catalog[st], e.Clus, elp.Options{Scale: e.Scale, Workers: e.Cfg.Workers})
}

// logicalBlockRows sizes physical blocks so that one block represents an
// HDFS-style 256 MB logical block at the experiment's scale. Fine-grained
// blocks are what make zone-map pruning and node striping behave the way
// the paper's small-files-on-HDFS layout does (§2.2.1).
func logicalBlockRows(scale, avgRowBytes float64) int {
	r := int(256e6 / (scale * avgRowBytes))
	if r < 2 {
		r = 2
	}
	if r > 4096 {
		r = 4096
	}
	return r
}

// GroundTruth runs the query exactly on the base table.
func (e *Env) GroundTruth(sql string) (*exec.Result, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	plan, err := exec.Compile(q, e.Data.Table.Schema)
	if err != nil {
		return nil, err
	}
	return exec.RunParallel(plan, exec.FromTable(e.Data.Table), 0.95, e.Cfg.Workers), nil
}

// MeasuredRelErr compares an approximate result against ground truth:
// mean |est − truth| / |truth| over groups present in both, for the first
// aggregate. Groups missing from the estimate (subset error) count as
// full (1.0) error, which penalises lost subgroups the way §3.1 motivates.
func MeasuredRelErr(approx, truth *exec.Result) float64 {
	if len(truth.Groups) == 0 {
		return 0
	}
	est := map[string]float64{}
	for _, g := range approx.Groups {
		if len(g.Estimates) > 0 {
			est[g.KeyString()] = g.Estimates[0].Point
		}
	}
	sum, n := 0.0, 0
	for _, g := range truth.Groups {
		if len(g.Estimates) == 0 {
			continue
		}
		tv := g.Estimates[0].Point
		n++
		ev, ok := est[g.KeyString()]
		if !ok {
			sum += 1 // missing subgroup
			continue
		}
		if tv == 0 {
			continue
		}
		re := (ev - tv) / tv
		if re < 0 {
			re = -re
		}
		if re > 1 {
			re = 1
		}
		sum += re
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// drawQueries instantiates n queries from the dataset's weighted template
// mix with the given bound suffix.
func drawQueries(data *workload.Dataset, rng *rand.Rand, n int, suffix string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = data.DrawTemplate(rng).Gen(rng, suffix)
	}
	return out
}
