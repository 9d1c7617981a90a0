package loadgen

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const finalLine = `{"seq":0,"level":1,"final":true,"elapsed_ms":1,"result":{"rows":[{"group":"*","cells":[{"value":1,"bound":0.1,"rel_err":0.01,"exact":false,"rows":10}]}],"confidence":0.95,"sim_latency_seconds":0.05}}`

// stubHandler speaks just enough of the server's /query wire protocol to
// exercise every verdict: the SQL text selects the scripted outcome.
func stubHandler(t *testing.T) http.Handler {
	t.Helper()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req struct {
			SQL string `json:"sql"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("stub: bad request body: %v", err)
		}
		switch {
		case strings.Contains(req.SQL, "shed"):
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case strings.Contains(req.SQL, "warming"):
			w.WriteHeader(http.StatusServiceUnavailable)
		case strings.Contains(req.SQL, "hang"):
			time.Sleep(2 * time.Second)
			w.WriteHeader(http.StatusOK)
		case strings.Contains(req.SQL, "garbled"):
			io.WriteString(w, finalLine+"\n"+`{"seq":1,"fin`+"\n")
		case strings.Contains(req.SQL, "failed"):
			io.WriteString(w, strings.Replace(finalLine, `"final":true`, `"final":true,"error":"query canceled"`, 1)+"\n")
		case strings.Contains(req.SQL, "partial"):
			io.WriteString(w, strings.Replace(finalLine, `"final":true`, `"final":false`, 1)+"\n")
		default:
			w.Header().Set("Content-Type", "application/x-ndjson")
			io.WriteString(w, finalLine+"\n")
		}
	})
}

func TestRunClassifiesOutcomes(t *testing.T) {
	srv := httptest.NewServer(stubHandler(t))
	defer srv.Close()

	tr := &Trace{
		Seed: 1, Duration: 10 * time.Millisecond,
		Requests: []Request{
			{AtMicros: 0, SQL: "SELECT ok 1"},
			{AtMicros: 1000, SQL: "SELECT ok 2"},
			{AtMicros: 2000, SQL: "SELECT shed"},
			{AtMicros: 3000, SQL: "SELECT warming"},
			{AtMicros: 4000, SQL: "SELECT ok 3"},
			{AtMicros: 5000, SQL: "SELECT hang", GiveUpSeconds: 0.1},
		},
	}
	rep, err := Run(tr, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arrivals != 6 || rep.Served != 3 || rep.Shed != 1 || rep.Unavailable != 1 || rep.Cancelled != 1 || rep.Errored != 0 {
		t.Fatalf("verdicts: %+v", rep)
	}
}

// TestRunErrorsOnBrokenFinalFrame: a 200 is Served only when its last
// line is a final frame with a result and no error; anything else a 200
// can end in is Errored.
func TestRunErrorsOnBrokenFinalFrame(t *testing.T) {
	srv := httptest.NewServer(stubHandler(t))
	defer srv.Close()

	for _, sql := range []string{"SELECT garbled", "SELECT failed", "SELECT partial"} {
		rep, err := Run(&Trace{Requests: []Request{{SQL: sql}}}, srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Arrivals != 1 || rep.Errored != 1 {
			t.Errorf("%s: verdicts %+v, want 1 errored", sql, rep)
		}
	}
}

func TestRunRequiresBaseURL(t *testing.T) {
	if _, err := Run(&Trace{}, ""); err == nil {
		t.Fatal("expected error for missing base URL")
	}
}
