//go:build !race

package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blinkdb"
)

// recorder is a reusable http.ResponseWriter: what a connection is to a
// handler, without httptest.ResponseRecorder's per-request buffers.
type recorder struct {
	h      http.Header
	status int
	n      int
}

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(b []byte) (int, error) { r.n += len(b); return len(b), nil }

// body is a request body that can be rewound.
type body struct{ strings.Reader }

func (*body) Close() error { return nil }

// TestHitPathAllocs is the structural claim of the served form: a
// result-cache hit costs a fixed, small number of allocations whatever the
// size of the answer — decode, one parse, normalize, the lookup, an
// envelope and one Write of bytes encoded once, on the entry's first hit.
func TestHitPathAllocs(t *testing.T) {
	eng := blinkdb.Open(blinkdb.Config{CacheTables: true})
	load := eng.CreateTable("t", blinkdb.Col("k", blinkdb.Int), blinkdb.Col("v", blinkdb.Float))
	for i := 0; i < 20000; i++ {
		if err := load.Append(i%200, float64(i%97)); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Close(); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{})
	hit := func(sql string) (allocs float64, bytes int) {
		payload := fmt.Sprintf(`{"sql": %q}`, sql)
		b := &body{}
		req := httptest.NewRequest(http.MethodPost, "/query", nil)
		req.Body = b
		w := &recorder{h: http.Header{}}
		serve := func() {
			b.Reset(payload)
			w.n = 0
			srv.ServeHTTP(w, req)
		}
		serve() // the miss
		serve() // the first hit builds the served form
		allocs = testing.AllocsPerRun(200, serve)
		if w.status != http.StatusOK || w.n == 0 {
			t.Fatalf("%s: status %d, %d bytes", sql, w.status, w.n)
		}
		return allocs, w.n
	}
	one, oneBytes := hit(`SELECT AVG(v), COUNT(*) FROM t WHERE k = 7`)
	panel, panelBytes := hit(`SELECT AVG(v), COUNT(*) FROM t GROUP BY k`)
	t.Logf("one-row hit: %.0f allocs for %d bytes; 200-group hit: %.0f allocs for %d bytes", one, oneBytes, panel, panelBytes)
	if hits := eng.Stats().ResultCacheHits; hits < 400 {
		t.Fatalf("the replays were not result-cache hits: %d", hits)
	}
	if panelBytes < 50*oneBytes {
		t.Fatalf("the panel (%d bytes) is not much larger than the one-row answer (%d)", panelBytes, oneBytes)
	}
	if one > 60 {
		t.Errorf("one-row hit allocates %.0f objects, ceiling 60", one)
	}
	if panel > one+4 {
		t.Errorf("a 200-group hit allocates %.0f objects against %.0f for one row: a hit's cost must not grow with its answer", panel, one)
	}
}
