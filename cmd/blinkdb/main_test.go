package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestSessionGolden replays testdata/session.sql — error and time bounds,
// GROUP BY, disjunctions, a malformed statement, exact replays served from
// the result cache, then streamed refinements — at one and four scan
// workers (the engine sizes its pool from GOMAXPROCS). Answers must not
// depend on the pool, so both transcripts must equal testdata/session.golden
// byte for byte. After a deliberate change to the transcript, regenerate
// the golden file with
//
//	go run ./cmd/blinkdb -rows 50000 < cmd/blinkdb/testdata/session.sql > cmd/blinkdb/testdata/session.golden
func TestSessionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/session.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		in, err := os.Open("testdata/session.sql")
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = run(in, &out, "conviva", 50000, 0.5, 42, 17)
		in.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: transcript differs from testdata/session.golden:\n%s", procs, firstDiff(got, want))
		}
	}
}

// firstDiff shows the first line where got and want part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
