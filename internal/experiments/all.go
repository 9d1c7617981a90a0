package experiments

// Experiment names one reproducible table/figure.
type Experiment struct {
	// Name is the CLI identifier ("6a", "7c", "table5", ...).
	Name string
	// Description is a one-line summary.
	Description string
	// Run produces the table.
	Run func(Config) (*Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"6a", "sample families per storage budget (Conviva)", Figure6a},
		{"6b", "sample families per storage budget (TPC-H)", Figure6b},
		{"6c", "BlinkDB vs Hive/Shark response time", Figure6c},
		{"7a", "per-template error, 3 strategies (Conviva)", Figure7a},
		{"7b", "per-template error, 3 strategies (TPC-H)", Figure7b},
		{"7c", "error convergence on rare subgroups", Figure7c},
		{"8a", "actual vs requested response time", Figure8a},
		{"8b", "actual vs requested error bound", Figure8b},
		{"8c", "latency vs cluster size", Figure8c},
		{"table5", "stratified-sample storage overhead (Zipf)", Table5},
		{"table5mc", "Table 5 Monte-Carlo cross-check", Table5MonteCarlo},
		{"ola", "BlinkDB vs online aggregation", OnlineVsOffline},
		{"abl-affinity", "ablation: shard-affine locality & placement pricing", AblationAffinity},
		{"abl-milp", "ablation: exact B&B vs greedy solver", AblationMILP},
		{"abl-skew", "ablation: tail-count vs kurtosis metric", AblationSkewMetric},
	}
}

// Find returns the named experiment, or nil.
func Find(name string) *Experiment {
	for _, e := range All() {
		if e.Name == name {
			ex := e
			return &ex
		}
	}
	return nil
}
