package baseline_test

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"blinkdb/internal/exec"
	"blinkdb/internal/experiments"
	"blinkdb/internal/sample"
	"blinkdb/internal/sqlparser"
)

// The evaluation's baselines other than OLA are assembled by the
// experiments: Fig. 6(c)'s full-scan engines are exact base-table scans
// priced by the cluster model under each engine profile, and §6.3's
// uniform-only and single-column strategies are catalogs NewEnv builds.
// These tests pin those baselines where the experiments build them.

var convivaEnv = sync.OnceValues(func() (*experiments.Env, error) {
	return experiments.NewEnv(experiments.Quick(), "conviva", 17e12)
})

func env(t *testing.T) *experiments.Env {
	t.Helper()
	e, err := convivaEnv()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fullScan runs src exactly over the base table, as the full-scan
// engines answer it.
func fullScan(t *testing.T, e *experiments.Env, src string, workers int) *exec.Result {
	t.Helper()
	q, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := exec.Compile(q, e.Data.Table.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return exec.RunParallel(plan, exec.FromTable(e.Data.Table), 0.95, workers)
}

func TestFullScanEngineOrdering(t *testing.T) {
	tab, err := experiments.Figure6c(experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	price := func(row, col int) float64 {
		v, err := strconv.ParseFloat(strings.TrimSpace(tab.Rows[row][col]), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for col := 1; col < len(tab.Header); col++ {
		hadoop, sharkDisk, sharkMem := price(0, col), price(1, col), price(2, col)
		if !(hadoop > sharkDisk && sharkDisk > sharkMem) {
			t.Errorf("%s: engine ordering wrong: hadoop %.0f, shark-disk %.0f, shark-mem %.0f",
				tab.Header[col], hadoop, sharkDisk, sharkMem)
		}
	}
	// Answers are exact regardless of engine.
	res := fullScan(t, env(t), `SELECT AVG(sessiontimems) FROM sessions GROUP BY country`, 4)
	for _, g := range res.Groups {
		if !g.Estimates[0].Exact {
			t.Error("full scan must be exact")
		}
	}
}

// TestFullScanWorkerEquivalence pins the full-scan baseline to the main
// engine's contract: any worker count returns the bit-identical result.
func TestFullScanWorkerEquivalence(t *testing.T) {
	e := env(t)
	for _, src := range []string{
		`SELECT AVG(sessiontimems) FROM sessions GROUP BY country`,
		`SELECT COUNT(*), SUM(jointimems) FROM sessions WHERE endedflag = 1 GROUP BY country`,
	} {
		if !reflect.DeepEqual(fullScan(t, e, src, 1), fullScan(t, e, src, 8)) {
			t.Errorf("%q: full scan diverged between 1 and 8 workers", src)
		}
	}
}

// TestUniformOnly: the §6.3 "random samples" strategy is a single uniform
// family holding half the table, with the resolution ladder the
// stratified families get.
func TestUniformOnly(t *testing.T) {
	e := env(t)
	entry, err := e.Catalog[experiments.Uniform].Lookup(e.Data.Table.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(entry.Families) != 1 {
		t.Fatalf("uniform catalog has %d families, want 1", len(entry.Families))
	}
	fam := entry.Families[0]
	if !fam.IsUniform() {
		t.Error("should be uniform")
	}
	half := e.Data.Table.NumRows() / 2
	if got := fam.Largest().Rows(); got != half {
		t.Errorf("largest = %d, want %d", got, half)
	}
	// NewEnv's ladder: ratio 2, 8 resolutions, minimum cap 2.
	if want := sample.GeometricCaps(half, 2, 8, 2); !reflect.DeepEqual(fam.Caps, want) {
		t.Errorf("caps = %v, want %v", fam.Caps, want)
	}
}

// TestSingleColumnRestriction: the Babcock-style single-dimensional
// baseline of §6.3 chooses, and its catalog holds, only one-column
// stratified families, where the multi-column strategy does not.
func TestSingleColumnRestriction(t *testing.T) {
	e := env(t)
	for _, c := range e.Plans[experiments.SingleDim].Chosen {
		if c.Phi.Len() != 1 {
			t.Errorf("single-column baseline chose %v", c.Phi)
		}
	}
	entry, err := e.Catalog[experiments.SingleDim].Lookup(e.Data.Table.Name)
	if err != nil {
		t.Fatal(err)
	}
	stratified := func(fams []*sample.Family) (n, wide int) {
		for _, f := range fams {
			if !f.IsUniform() {
				n++
				if f.Phi.Len() > 1 {
					wide++
				}
			}
		}
		return n, wide
	}
	if n, wide := stratified(entry.Families); n == 0 || wide != 0 {
		t.Errorf("single-column catalog: %d stratified families, %d over several columns", n, wide)
	}
	multi, err := e.Catalog[experiments.MultiDim].Lookup(e.Data.Table.Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, wide := stratified(multi.Families); wide == 0 {
		t.Error("the multi-column strategy built no multi-column family: the restriction is not exercised")
	}
}
