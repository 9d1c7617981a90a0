package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"blinkdb"
)

// wireFrame mirrors the fields of internal/server's frame that grading
// reads. The wire format is the contract under test, so it is decoded
// from bytes here, not imported.
type wireFrame struct {
	Final  bool   `json:"final"`
	Error  string `json:"error"`
	Result *struct {
		Rows []struct {
			Group string `json:"group"`
			Cells []struct {
				Value  float64 `json:"value"`
				Bound  float64 `json:"bound"`
				RelErr float64 `json:"rel_err"`
				Exact  bool    `json:"exact"`
			} `json:"cells"`
		} `json:"rows"`
		SimLatencySeconds float64 `json:"sim_latency_seconds"`
		RowsScanned       int64   `json:"rows_scanned"`
	} `json:"result"`
}

// grades are the check pass's tallies. Answers are bit-identical for any
// cache state and schedule, so with a fixed seed every field repeats
// exactly from run to run.
type grades struct {
	attempted     int
	failed        int // non-200, transport error, malformed or error final frame, unknown group
	bounded       int
	boundMissed   int // own rel_err above the requested error, or sim latency above the requested time
	cells         int
	coverageMiss  int // truth outside value ± bound; an exact cell claims bound 0
	exactCells    int
	falseExact    int // cells marked exact whose value is not the truth
	truthGroups   int
	missingGroups int // truth groups absent from the answer
	rowsScanned   int64
	firstFailure  string
}

func (g *grades) fail(format string, args ...any) {
	g.failed++
	if g.firstFailure == "" {
		g.firstFailure = fmt.Sprintf(format, args...)
	}
}

// covered reports whether truth lies within value ± bound. The slack is
// for exact cells: summing a census sample and summing the base table in
// another block order differ in the last bits.
func covered(value, bound, truth float64) bool {
	return math.Abs(truth-value) <= bound+1e-9*math.Max(math.Abs(value), math.Abs(truth))
}

// grade checks one reply against the request's bounds and the exact
// answer of its bare SQL.
func (g *grades) grade(req *request, rep reply, truth *blinkdb.Result) {
	g.attempted++
	if rep.status != http.StatusOK {
		g.fail("%s: status %d: %s", req.sql, rep.status, rep.body)
		return
	}
	var f wireFrame
	if err := json.Unmarshal(lastFrame(rep.body), &f); err != nil {
		g.fail("%s: final frame: %v", req.sql, err)
		return
	}
	if !f.Final || f.Error != "" || f.Result == nil {
		g.fail("%s: final frame final=%v error=%q", req.sql, f.Final, f.Error)
		return
	}
	g.rowsScanned += f.Result.RowsScanned

	want := make(map[string][]blinkdb.Cell, len(truth.Rows))
	for _, row := range truth.Rows {
		want[row.Group] = row.Cells
	}
	g.truthGroups += len(want)
	boundMet := true
	seen := 0
	for _, row := range f.Result.Rows {
		cells, known := want[row.Group]
		if !known || len(cells) != len(row.Cells) {
			g.fail("%s: group %q is not in the exact answer", req.sql, row.Group)
			return
		}
		seen++
		for i, c := range row.Cells {
			g.cells++
			miss := !covered(c.Value, c.Bound, cells[i].Value)
			if miss {
				g.coverageMiss++
			}
			if c.Exact {
				g.exactCells++
				if miss {
					g.falseExact++
				}
			}
			// Graded as loadgen.gradeBound does: exact cells and undefined
			// relative errors (-1 on the wire) are skipped, and a hair of
			// slack keeps boundary answers stable.
			if req.errorPct > 0 && !c.Exact && c.RelErr >= 0 && c.RelErr*100 > req.errorPct+1e-9 {
				boundMet = false
			}
		}
	}
	g.missingGroups += len(want) - seen
	if req.timeS > 0 && f.Result.SimLatencySeconds > req.timeS+1e-9 {
		boundMet = false
	}
	if req.errorPct > 0 || req.timeS > 0 {
		g.bounded++
		if !boundMet {
			g.boundMissed++
		}
	}
}

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
