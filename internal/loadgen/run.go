package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"
)

// Report counts a replay's outcomes: every arrival lands in exactly one
// of the five buckets.
type Report struct {
	Arrivals int
	// Served: 200 whose last line is a final frame with a result and no
	// error.
	Served int
	// Shed: 429 from admission control.
	Shed int
	// Unavailable: 503 (server warming or restarting).
	Unavailable int
	// Cancelled: the client gave up (GiveUpSeconds) before the final
	// answer, whether still queued or already streaming.
	Cancelled int
	// Errored: transport failure, any other HTTP status, or a 200 that
	// did not end in a clean final frame.
	Errored int
}

// verdict classifies one request's outcome.
type verdict int

const (
	served verdict = iota
	shed
	unavailable
	cancelled
	errored
)

func (r *Report) count(v verdict) {
	switch v {
	case served:
		r.Served++
	case shed:
		r.Shed++
	case unavailable:
		r.Unavailable++
	case cancelled:
		r.Cancelled++
	default:
		r.Errored++
	}
}

// finalFrame is the subset of the server's frame that decides Served.
type finalFrame struct {
	Final  bool      `json:"final"`
	Error  string    `json:"error"`
	Result *struct{} `json:"result"`
}

// Run replays the trace against the server at baseURL over real HTTP:
// requests are dispatched open-loop at their recorded arrival offsets,
// each in its own goroutine, and counted by outcome. Run returns after
// every dispatched request has completed.
//
// Note the server may still be finishing the tail of abandoned
// (client-cancelled) handlers when Run returns; callers asserting
// server-side conservation should poll the server's counters briefly
// (see the server package's loadgen tests).
func Run(trace *Trace, baseURL string) (*Report, error) {
	if baseURL == "" {
		return nil, errors.New("loadgen: Run requires a base URL")
	}
	rep := &Report{Arrivals: len(trace.Requests)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := range trace.Requests {
		r := &trace.Requests[i]
		if d := time.Until(start.Add(time.Duration(r.AtMicros) * time.Microsecond)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := issue(baseURL, r)
			mu.Lock()
			rep.count(v)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return rep, nil
}

// issue sends one request and classifies the outcome.
func issue(baseURL string, r *Request) verdict {
	ctx := context.Background()
	if r.GiveUpSeconds > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(r.GiveUpSeconds*float64(time.Second)))
		defer cancel()
	}
	body, err := json.Marshal(map[string]any{"sql": r.SQL, "stream": r.Stream})
	if err != nil {
		return errored
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/query", bytes.NewReader(body))
	if err != nil {
		return errored
	}
	req.Header.Set("Content-Type", "application/json")

	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return cancelled
		}
		return errored
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			return shed
		case http.StatusServiceUnavailable:
			return unavailable
		}
		return errored
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return cancelled
		}
		return errored
	}
	var f finalFrame
	if err := json.Unmarshal(last, &f); err != nil || !f.Final || f.Error != "" || f.Result == nil {
		return errored
	}
	return served
}
