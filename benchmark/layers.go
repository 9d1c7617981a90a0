package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"blinkdb"
	"blinkdb/internal/exec"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
)

// Layer measurements taken by calling a layer's public functions
// directly, outside any request.

// parserLayer times sqlparser.Parse and Normalize over the statements the
// server would execute for reqs; medians in µs.
func parserLayer(reqs []request) (parseUS, normalizeUS float64, err error) {
	parse := make([]float64, 0, len(reqs))
	norm := make([]float64, 0, len(reqs))
	for i := range reqs {
		sql := reqs[i].boundSQL()
		t := time.Now()
		q, err := sqlparser.Parse(sql)
		parse = append(parse, time.Since(t).Seconds()*1e6)
		if err != nil {
			return 0, 0, fmt.Errorf("parse %q: %w", sql, err)
		}
		t = time.Now()
		key, _ := sqlparser.Normalize(q)
		norm = append(norm, time.Since(t).Seconds()*1e6)
		if key == "" {
			return 0, 0, fmt.Errorf("normalize %q: empty key", sql)
		}
	}
	return median(parse), median(norm), nil
}

// scanResult is the executor measured on its own.
type scanResult struct {
	rows         int64
	w1, wmax, w8 float64 // rows/s at 1, GOMAXPROCS and 8 workers
	gbPerS       float64 // computed: 16 B per row (dt + sessiontime) at wmax
	memcpyGBPerS float64
}

// scanLayer builds a columnar storage.Table of rows sessions rows, in the
// block size the engine would pick, and times exec.RunParallelSchedCtx on
// a filter-and-aggregate plan at three pool sizes, interleaved so drift
// hits all three alike. 8 is the engine's default pool: w8 ÷ wmax is what
// oversubscribing this host costs.
func scanLayer(seed int64, rows int) (scanResult, error) {
	cols := make([]types.Column, 0, len(dims)+4)
	for _, d := range dims {
		cols = append(cols, types.Column{Name: d.name, Kind: types.KindString})
	}
	cols = append(cols,
		types.Column{Name: "genre", Kind: types.KindString},
		types.Column{Name: "dt", Kind: types.KindInt},
		types.Column{Name: "sessiontime", Kind: types.KindFloat},
		types.Column{Name: "buffering", Kind: types.KindFloat})
	schema := types.NewSchema(cols...)
	tab := storage.NewTable("sessions", schema)
	var b *storage.Builder
	err := forEachChunk(seed, rows, func(chunk [][]any) error {
		for _, vals := range chunk {
			row := make(types.Row, len(vals))
			for i, v := range vals {
				switch x := v.(type) {
				case string:
					row[i] = types.Str(x)
				case int64:
					row[i] = types.Int(x)
				case float64:
					row[i] = types.Float(x)
				}
			}
			if b == nil {
				// Engine.blockRows at Scale 1e4: one block ≈ 256 MB logical.
				perBlock := int(256e6 / (1e4 * float64(storage.EstimateRowBytes(row))))
				perBlock = min(max(perBlock, 2), 8192)
				b = storage.NewBuilderLayout(tab, perBlock, 100, storage.InMemory, storage.ColumnarLayout)
			}
			b.AppendRow(row)
		}
		return nil
	})
	if err != nil {
		return scanResult{}, err
	}
	b.Finish()

	q, err := sqlparser.Parse("SELECT COUNT(*), AVG(sessiontime) FROM sessions WHERE dt < 500")
	if err != nil {
		return scanResult{}, err
	}
	plan, err := exec.Compile(q, schema)
	if err != nil {
		return scanResult{}, err
	}
	in := exec.FromTable(tab)
	pools := []int{1, runtime.GOMAXPROCS(0), 8}
	rates := make([][]float64, len(pools))
	var want int64 = -1
	for round := 0; round < 15; round++ {
		for i, workers := range pools {
			t := time.Now()
			res, err := exec.RunParallelSchedCtx(context.Background(), plan, in, 0.95, workers, exec.SchedNodeAffine, nil)
			d := time.Since(t).Seconds()
			if err != nil {
				return scanResult{}, err
			}
			if want < 0 {
				want = res.RowsMatched
			}
			if res.RowsScanned != tab.NumRows() || res.RowsMatched != want {
				return scanResult{}, fmt.Errorf("scan at %d workers: scanned %d matched %d, want %d and %d",
					workers, res.RowsScanned, res.RowsMatched, tab.NumRows(), want)
			}
			if round > 0 { // round 0 warms the pool and the caches
				rates[i] = append(rates[i], float64(tab.NumRows())/d)
			}
		}
	}
	out := scanResult{rows: tab.NumRows(), w1: median(rates[0]), wmax: median(rates[1]), w8: median(rates[2])}
	out.gbPerS = out.wmax * 16 / 1e9
	out.memcpyGBPerS = memcpyGBPerS()
	return out, nil
}

// memcpyGBPerS is the host's copy rate: the best of 5 copies of 64 MiB,
// counting the bytes once. This host reports a 260 MiB last-level cache,
// so read it as a cache-to-cache figure, not DRAM bandwidth.
func memcpyGBPerS() float64 {
	const size = 64 << 20
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	best := 0.0
	for i := 0; i < 5; i++ {
		t := time.Now()
		copy(dst, src)
		if r := size / time.Since(t).Seconds() / 1e9; r > best {
			best = r
		}
	}
	runtime.KeepAlive(dst)
	return best
}

// persistResult is one cold boot, snapshot and warm boot of an engine
// with a DataDir.
type persistResult struct {
	coldS, snapshotS, warmS float64
	segmentMB               float64
}

// persistenceLayer builds an engine with a data directory inside the
// working directory, answers a few requests, snapshots, closes, boots
// again from disk, and requires the first answer after the warm boot to be
// bit-identical to the one before it.
func persistenceLayer(cfg config, reqs []request) (persistResult, error) {
	var out persistResult
	dir := filepath.Join(".bench_tmp", fmt.Sprintf("persist-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	defer func() {
		os.RemoveAll(dir)
		os.Remove(".bench_tmp") // only when no other run is using it
	}()

	cold, err := setup(cfg.seed, cfg.rows, dir)
	if err != nil {
		return out, err
	}
	out.coldS = cold.totalS()
	n := min(len(reqs), 40)
	for i := 0; i < n; i++ {
		if _, err := cold.eng.Query(reqs[i].boundSQL()); err != nil {
			cold.eng.Close()
			return out, err
		}
	}
	before, err := cold.eng.Query(reqs[0].boundSQL()) // a replay: what the snapshot should bring back
	if err != nil {
		cold.eng.Close()
		return out, err
	}
	t := time.Now()
	err = cold.eng.SnapshotWarmup(blinkdb.WarmupState{})
	out.snapshotS = time.Since(t).Seconds()
	if cerr := cold.eng.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, err
	}
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			out.segmentMB += float64(info.Size()) / 1e6
		}
		return err
	})
	if err != nil {
		return out, err
	}

	warm, err := setup(cfg.seed, cfg.rows, dir)
	if err != nil {
		return out, err
	}
	defer warm.eng.Close()
	t = time.Now()
	rep, err := warm.eng.RestoreWarmup()
	out.warmS = warm.totalS() + time.Since(t).Seconds()
	if err != nil {
		return out, err
	}
	if rep == nil || len(warm.eng.PersistenceNotes()) > 0 {
		return out, fmt.Errorf("warm boot fell back to cold: %v", warm.eng.PersistenceNotes())
	}
	after, err := warm.eng.Query(reqs[0].boundSQL())
	if err != nil {
		return out, err
	}
	if !reflect.DeepEqual(before, after) {
		return out, fmt.Errorf("first answer after warm boot differs from the one before the restart:\n before %+v\n after  %+v", before, after)
	}
	return out, nil
}
