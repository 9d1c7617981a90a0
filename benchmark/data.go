package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"blinkdb"
)

// dim is one Zipf-skewed string dimension of the sessions table.
type dim struct {
	name string
	card int
}

// The five stratification candidates, in schema order. Cardinalities are
// the issue's; the skew (zipfS) is what lets three or more stratified
// families fit the 50% budget at the engine's default K = rows/100: a
// column's S(φ,K) holds Σ min(freq, K) rows, ~14% of the table per column
// at s = 2.
var dims = []dim{
	{"city", 200}, {"os", 40}, {"browser", 60}, {"country", 80}, {"device", 25},
}

var genres = []string{"drama", "news", "sports", "western"}

const (
	zipfS     = 2.0
	dtRange   = 1000
	chunkRows = 25000
)

func dimValue(d dim, rank int) string { return fmt.Sprintf("%s%03d", d.name, rank) }

// forEachChunk generates the table's rows from seed in chunks of pre-boxed
// values, so callers can time Loader.Append without timing generation or
// interface boxing. The same (seed, rows) always yields the same rows.
func forEachChunk(seed int64, rows int, fn func(chunk [][]any) error) error {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([][]any, len(dims))
	zipfs := make([]*rand.Zipf, len(dims))
	for i, d := range dims {
		vocab[i] = make([]any, d.card)
		for r := range vocab[i] {
			vocab[i][r] = dimValue(d, r)
		}
		zipfs[i] = rand.NewZipf(rng, zipfS, 1, uint64(d.card-1))
	}
	genreVals := make([]any, len(genres))
	for i, g := range genres {
		genreVals[i] = g
	}
	chunk := make([][]any, 0, chunkRows)
	for done := 0; done < rows; {
		chunk = chunk[:0]
		for ; len(chunk) < chunkRows && done < rows; done++ {
			row := make([]any, 0, len(dims)+4)
			for i := range dims {
				row = append(row, vocab[i][zipfs[i].Uint64()])
			}
			g := rng.Intn(len(genres))
			row = append(row, genreVals[g], int64(rng.Intn(dtRange)),
				rng.ExpFloat64()*60*float64(1+g), rng.ExpFloat64()*0.8)
			chunk = append(chunk, row)
		}
		if err := fn(chunk); err != nil {
			return err
		}
	}
	return nil
}

// engineConfig is cmd/blinkdb-server's: Scale 1e4, CacheTables, default
// worker pool, both caches and telemetry on. The benchmark seed never
// reaches the engine; it only shapes the inputs.
func engineConfig(dataDir string) blinkdb.Config {
	return blinkdb.Config{Scale: 1e4, CacheTables: true, DataDir: dataDir}
}

// sampleOptions is the paper's 50% budget over one template per dimension.
func sampleOptions() blinkdb.SampleOptions {
	weights := []float64{0.3, 0.2, 0.2, 0.2, 0.1}
	opts := blinkdb.SampleOptions{BudgetFraction: 0.5}
	for i, d := range dims {
		opts.Templates = append(opts.Templates,
			blinkdb.Template{Columns: []string{d.name}, Weight: weights[i]})
	}
	return opts
}

// setupResult is one timed set-up.
type setupResult struct {
	eng      *blinkdb.Engine
	loadS    float64 // Loader.Append + Close
	samplesS float64 // CreateSamples
	report   *blinkdb.SampleReport
}

func (s setupResult) totalS() float64 { return s.loadS + s.samplesS }

// setup builds a fresh engine: only Append, Close and CreateSamples are
// on the clock.
func setup(seed int64, rows int, dataDir string) (setupResult, error) {
	eng := blinkdb.Open(engineConfig(dataDir))
	cols := make([]blinkdb.ColumnDef, 0, len(dims)+4)
	for _, d := range dims {
		cols = append(cols, blinkdb.Col(d.name, blinkdb.String))
	}
	cols = append(cols, blinkdb.Col("genre", blinkdb.String), blinkdb.Col("dt", blinkdb.Int),
		blinkdb.Col("sessiontime", blinkdb.Float), blinkdb.Col("buffering", blinkdb.Float))
	load := eng.CreateTable("sessions", cols...)
	var res setupResult
	err := forEachChunk(seed, rows, func(chunk [][]any) error {
		start := time.Now()
		for _, row := range chunk {
			if err := load.Append(row...); err != nil {
				return err
			}
		}
		res.loadS += time.Since(start).Seconds()
		return nil
	})
	if err != nil {
		return res, err
	}
	start := time.Now()
	if err := load.Close(); err != nil {
		return res, err
	}
	res.loadS += time.Since(start).Seconds()
	start = time.Now()
	rep, err := eng.CreateSamples("sessions", sampleOptions())
	if err != nil {
		return res, err
	}
	res.samplesS = time.Since(start).Seconds()
	res.eng, res.report = eng, rep
	return res, nil
}

// heapMB forces a collection and reports the live heap.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
